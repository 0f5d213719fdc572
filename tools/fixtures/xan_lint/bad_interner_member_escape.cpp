// xan_lint fixture: MUST fire interner-escape exactly once.
//
// A string_view into interner storage is cached on a member.  It stays
// valid only while the interner lives, and the stored form of an interned
// string is its Symbol, so the member is reported.

#include <string_view>

namespace xanadu::fixture {

class StringInterner {
 public:
  int intern(std::string_view text);
  std::string_view view(int symbol) const;
};

class TopicTable {
 public:
  explicit TopicTable(StringInterner& interner) : interner_(interner) {}

  void subscribe(std::string_view topic) {
    const int symbol = interner_.intern(topic);
    const std::string_view name = interner_.view(symbol);
    last_topic_ = name;  // BAD: member keeps the interner's storage.
  }

 private:
  StringInterner& interner_;
  std::string_view last_topic_;
};

}  // namespace xanadu::fixture
