#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

namespace specdag {
namespace {

TEST(Shape, Numel) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(shape_numel({5}), 5u);
  EXPECT_EQ(shape_numel({}), 0u);
}

TEST(Shape, ToString) { EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]"); }

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(Tensor, ConstructWithData) {
  Tensor t({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_FLOAT_EQ(t.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(t.at(1, 1), 4.0f);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f}), std::invalid_argument);
  EXPECT_THROW(Tensor(Shape{}), std::invalid_argument);
}

TEST(Tensor, Full) {
  Tensor t = Tensor::full({3}, 2.5f);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(t[i], 2.5f);
}

TEST(Tensor, DimAccess) {
  Tensor t({4, 5, 6});
  EXPECT_EQ(t.dim(0), 4u);
  EXPECT_EQ(t.dim(2), 6u);
  EXPECT_THROW(t.dim(3), std::out_of_range);
}

TEST(Tensor, Reshape) {
  Tensor t({2, 6}, std::vector<float>(12, 1.0f));
  Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  EXPECT_EQ(r.numel(), 12u);
  EXPECT_THROW(t.reshaped({5, 5}), std::invalid_argument);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Tensor, FillOverwrites) {
  Tensor t({3}, {1.0f, 2.0f, 3.0f});
  t.fill(7.0f);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(t[i], 7.0f);
}

TEST(Tensor, SameShape) {
  Tensor a({2, 3}), b({2, 3}), c({3, 2});
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

}  // namespace
}  // namespace specdag
