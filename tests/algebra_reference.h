// Reference CDM matching that builds the residual sets out. Production's
// match() (src/dcda/algebra.h) only reports whether they are empty; the
// tests use this version to check the §3 walkthrough's reductions element
// by element and to cross-check the production verdict.
#pragma once

#include <utility>
#include <vector>

#include "src/dcda/algebra.h"

namespace adgc::test {

struct ResidualMatch {
  AlgebraSet source;         // unresolved dependencies
  AlgebraSet target;         // traversed stubs not (yet) depended upon
  bool ic_conflict = false;  // same RefId in both sets with different ICs

  bool cycle_found() const { return !ic_conflict && source.empty() && target.empty(); }
};

inline ResidualMatch residual_match(const Algebra& alg) {
  ResidualMatch out;
  const auto& s = alg.source.elems();
  const auto& t = alg.target.elems();
  std::size_t i = 0, j = 0;
  std::vector<AlgebraElem> rs, rt;
  while (i < s.size() && j < t.size()) {
    if (s[i].ref < t[j].ref) {
      rs.push_back(s[i++]);
    } else if (t[j].ref < s[i].ref) {
      rt.push_back(t[j++]);
    } else {
      if (s[i].ic != t[j].ic) out.ic_conflict = true;
      ++i;
      ++j;
    }
  }
  while (i < s.size()) rs.push_back(s[i++]);
  while (j < t.size()) rt.push_back(t[j++]);
  out.source = AlgebraSet(std::move(rs));
  out.target = AlgebraSet(std::move(rt));
  return out;
}

}  // namespace adgc::test
