#include "stream/tuple.h"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace rtrec::stream {
namespace {

const Schema* TestSchema() {
  static const Schema* schema = new Schema{"user", "score", "ids", "vec"};
  return schema;
}

Tuple MakeTuple() {
  return Tuple(TestSchema(), std::int64_t{7}, 2.5,
               std::vector<std::int64_t>{4, 5, 6},
               std::vector<float>{1.0f, 2.0f});
}

TEST(SchemaTest, IndexOfFindsFields) {
  Schema schema({"a", "b", "c"});
  EXPECT_EQ(schema.IndexOf("a"), 0);
  EXPECT_EQ(schema.IndexOf("c"), 2);
  EXPECT_EQ(schema.IndexOf("nope"), -1);
  EXPECT_EQ(schema.size(), 3u);
}

TEST(TupleTest, PositionalAccess) {
  Tuple t = MakeTuple();
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(std::get<std::int64_t>(t.Get(0)), 7);
  EXPECT_DOUBLE_EQ(std::get<double>(t.Get(1)), 2.5);
}

TEST(TupleTest, DefaultTupleIsEmpty) {
  Tuple t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.schema(), nullptr);
  EXPECT_EQ(t.GetIf<std::int64_t>(0), nullptr);
}

TEST(TupleTest, ToStringNamesFields) {
  Tuple t = MakeTuple();
  const std::string s = t.ToString();
  EXPECT_NE(s.find("user=7"), std::string::npos);
  EXPECT_NE(s.find("ids=int64[3]"), std::string::npos);
  EXPECT_NE(s.find("float[2]"), std::string::npos);
}

TEST(TupleTest, CopyIsIndependent) {
  Tuple a = MakeTuple();
  Tuple b = a;
  EXPECT_EQ(*b.GetIf<std::int64_t>(0), 7);
  EXPECT_EQ(a.schema(), b.schema());  // Schema shared by pointer.
}

TEST(TupleTest, InPlaceConstructionMovesPayloads) {
  std::vector<float> vec(16, 0.5f);
  const float* payload = vec.data();
  std::vector<std::int64_t> ids = {4, 5, 6};
  const std::int64_t* ids_payload = ids.data();
  Tuple t(TestSchema(), std::int64_t{7}, 2.5, std::move(ids),
          std::move(vec));
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t.schema(), TestSchema());
  // The vector was moved into the tuple's inline slot, not copied.
  const auto* stored = t.GetIf<std::vector<float>>(3);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->data(), payload);
  EXPECT_EQ(*t.GetIf<std::int64_t>(0), 7);
  EXPECT_EQ(t.GetIf<std::vector<std::int64_t>>(2)->data(), ids_payload);
}

TEST(TupleTest, GetIfChecksIndexAndType) {
  Tuple t = MakeTuple();
  EXPECT_EQ(t.GetIf<double>(0), nullptr);       // Holds an int64.
  EXPECT_EQ(t.GetIf<std::int64_t>(4), nullptr);  // Past the last field.
  EXPECT_DOUBLE_EQ(*t.GetIf<double>(1), 2.5);
}

TEST(TupleTest, FanOutCopiesOfFloatVectorsAreIndependent) {
  std::vector<Tuple> copies;
  {
    Tuple original = MakeTuple();
    for (int i = 0; i < 3; ++i) copies.push_back(original);
    const auto* mine = original.GetIf<std::vector<float>>(3);
    const auto* my_ids = original.GetIf<std::vector<std::int64_t>>(2);
    for (const Tuple& copy : copies) {
      const auto* theirs = copy.GetIf<std::vector<float>>(3);
      ASSERT_NE(theirs, nullptr);
      EXPECT_NE(theirs->data(), mine->data());
      EXPECT_EQ(*theirs, *mine);
      const auto* their_ids = copy.GetIf<std::vector<std::int64_t>>(2);
      ASSERT_NE(their_ids, nullptr);
      EXPECT_NE(their_ids->data(), my_ids->data());
    }
  }  // The original dies; every copy still owns its payload.
  for (const Tuple& copy : copies) {
    EXPECT_EQ(*copy.GetIf<std::vector<float>>(3),
              (std::vector<float>{1.0f, 2.0f}));
    EXPECT_EQ(*copy.GetIf<std::vector<std::int64_t>>(2),
              (std::vector<std::int64_t>{4, 5, 6}));
  }
}

TEST(TupleTest, MovedFromTupleDestroysSafely) {
  Tuple a = MakeTuple();
  const float* payload = a.GetIf<std::vector<float>>(3)->data();
  const std::int64_t* ids_payload =
      a.GetIf<std::vector<std::int64_t>>(2)->data();
  Tuple b(std::move(a));
  EXPECT_EQ(b.size(), 4u);
  // The vector's buffer moved with the tuple; nothing was copied.
  EXPECT_EQ(b.GetIf<std::vector<float>>(3)->data(), payload);

  Tuple c;
  c = std::move(b);
  EXPECT_EQ(c.GetIf<std::vector<std::int64_t>>(2)->data(), ids_payload);
  EXPECT_EQ(c.GetIf<std::vector<float>>(3)->data(), payload);

  // Reusing moved-from tuples (as ring slots do) is safe too, and a and
  // b are destroyed at scope exit.
  a = c;
  b = std::move(a);
  EXPECT_EQ(*b.GetIf<std::int64_t>(0), 7);
  EXPECT_EQ(*b.GetIf<std::vector<float>>(3), (std::vector<float>{1.0f, 2.0f}));
}

TEST(TupleTest, CarriesInt64Vectors) {
  static const Schema* schema = new Schema{"user", "partners"};
  Tuple t(schema, std::int64_t{4}, std::vector<std::int64_t>{11, 12, 13});
  const auto* partners = t.GetIf<std::vector<std::int64_t>>(1);
  ASSERT_NE(partners, nullptr);
  EXPECT_EQ(*partners, (std::vector<std::int64_t>{11, 12, 13}));
  EXPECT_EQ(t.GetIf<std::vector<float>>(1), nullptr);
  EXPECT_EQ(t.ToString(), "(user=4, partners=int64[3])");
}

TEST(TupleTest, FiveFieldTupleRoundTrips) {
  static const Schema* five =
      new Schema{"user", "partners", "vec", "sim", "time"};
  Tuple t(five, std::int64_t{42}, std::vector<std::int64_t>(63, 7),
          std::vector<float>{1.0f, 2.0f, 3.0f}, 0.25, std::int64_t{-9});
  ASSERT_EQ(t.size(), kMaxTupleFields);
  Tuple copy = t;
  Tuple moved(std::move(t));
  for (const Tuple* u : {&copy, &moved}) {
    EXPECT_EQ(*u->GetIf<std::int64_t>(0), 42);
    EXPECT_EQ(u->GetIf<std::vector<std::int64_t>>(1)->size(), 63u);
    EXPECT_EQ(u->GetIf<std::vector<float>>(2)->size(), 3u);
    EXPECT_DOUBLE_EQ(*u->GetIf<double>(3), 0.25);
    EXPECT_EQ(*u->GetIf<std::int64_t>(4), -9);
  }
}

TEST(TupleTest, MoreThanFiveFieldsFailsLoudly) {
  using I = std::int64_t;
  // In-place construction: a sixth value does not compile.
  static_assert(std::is_constructible_v<Tuple, const Schema*, I, I, I, I, I>);
  static_assert(!std::is_constructible_v<Tuple, const Schema*, I, I, I, I,
                                         I, I>);
  // A schema is sized at run time: a sixth field aborts.
  EXPECT_DEATH(Schema({"a", "b", "c", "d", "e", "f"}), "exceeds");
}

TEST(HashValueTest, EqualValuesHashEqual) {
  EXPECT_EQ(HashValue(Value{std::int64_t{5}}),
            HashValue(Value{std::int64_t{5}}));
  EXPECT_EQ(HashValue(Value{std::vector<std::int64_t>{1, 2}}),
            HashValue(Value{std::vector<std::int64_t>{1, 2}}));
  EXPECT_EQ(HashValue(Value{2.5}), HashValue(Value{2.5}));
}

TEST(HashValueTest, DistinctValuesMostlyDiffer) {
  EXPECT_NE(HashValue(Value{std::int64_t{5}}),
            HashValue(Value{std::int64_t{6}}));
  EXPECT_NE(HashValue(Value{std::vector<std::int64_t>{1, 2}}),
            HashValue(Value{std::vector<std::int64_t>{2, 1}}));
  // Same number as int vs double hashes independently (type matters for
  // routing only if emitters are consistent, which schemas enforce).
  EXPECT_NE(HashValue(Value{}), HashValue(Value{std::int64_t{0}}));
}

TEST(ValueToStringTest, AllAlternatives) {
  EXPECT_EQ(ValueToString(Value{}), "null");
  EXPECT_EQ(ValueToString(Value{std::int64_t{42}}), "42");
  EXPECT_EQ(ValueToString(Value{2.5}), "2.5");
  EXPECT_EQ(ValueToString(Value{std::vector<float>{1, 2, 3}}), "float[3]");
  EXPECT_EQ(ValueToString(Value{std::vector<std::int64_t>{1, 2}}),
            "int64[2]");
}

}  // namespace
}  // namespace rtrec::stream
