// xan_lint fixture: libc-rand over qualified and unqualified calls.  libc's
// rand()/srand() fire bare, std::-qualified and ::-qualified (lines 12-16);
// a member call or another scope's rand is not libc's and stays silent
// (lines 17-19).  Dice and dice:: are declared elsewhere on purpose: a
// declaration of a function named rand would itself read as a bare call.
#include <cstdlib>

namespace fixture {

int roll_all(Dice& cup, Dice* spare) {
  int total = 0;
  total += rand();
  std::srand(7);
  total += std::rand();
  ::srand(9);
  total += ::rand();
  total += cup.rand(6);
  total += spare->rand(6);
  total += dice::rand(6);
  return total;
}

}  // namespace fixture
