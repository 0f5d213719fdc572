// xan_lint fixture: MUST fire interner-escape exactly once, interprocedurally.
//
// The hazard hides behind a helper's return value: view_label() hands out
// a string_view into interner storage, and the caller retains it in a
// member container.  The finding must carry the return-flow path
// (view_label -> remember).

#include <string_view>
#include <vector>

namespace xanadu::fixture {

class StringInterner {
 public:
  int intern(std::string_view text);
  std::string_view view(int symbol) const;
};

class LabelCache {
 public:
  std::string_view view_label(int symbol) { return names_.view(symbol); }

  void remember(int symbol) {
    retained_.push_back(view_label(symbol));  // BAD: member retains view.
  }

 private:
  StringInterner names_;
  std::vector<std::string_view> retained_;
};

}  // namespace xanadu::fixture
