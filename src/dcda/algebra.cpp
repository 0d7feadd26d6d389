#include "src/dcda/algebra.h"

#include <algorithm>
#include <sstream>

#include "src/common/ids.h"

namespace adgc {

namespace {
auto lower_bound_ref(const std::vector<AlgebraElem>& v, RefId ref) {
  return std::lower_bound(v.begin(), v.end(), ref,
                          [](const AlgebraElem& e, RefId r) { return e.ref < r; });
}
}  // namespace

AlgebraSet::AlgebraSet(std::vector<AlgebraElem> elems) : elems_(std::move(elems)) {
  std::sort(elems_.begin(), elems_.end(),
            [](const AlgebraElem& a, const AlgebraElem& b) { return a.ref < b.ref; });
  elems_.erase(std::unique(elems_.begin(), elems_.end()), elems_.end());
}

AlgebraSet::Insert AlgebraSet::insert(AlgebraElem e) {
  auto it = lower_bound_ref(elems_, e.ref);
  if (it != elems_.end() && it->ref == e.ref) {
    return it->ic == e.ic ? Insert::kPresent : Insert::kConflict;
  }
  elems_.insert(it, e);
  return Insert::kAdded;
}

bool AlgebraSet::contains(RefId ref) const { return find(ref) != nullptr; }

const AlgebraElem* AlgebraSet::find(RefId ref) const {
  auto it = lower_bound_ref(elems_, ref);
  if (it != elems_.end() && it->ref == ref) return &*it;
  return nullptr;
}

MatchResult match(const Algebra& alg) {
  MatchResult out;
  // Both inputs are sorted by ref: a single merge pass. Every element
  // cancels exactly when both sets hold the same refs.
  const auto& s = alg.source.elems();
  const auto& t = alg.target.elems();
  std::size_t i = 0, j = 0, cancelled = 0;
  while (i < s.size() && j < t.size()) {
    if (s[i].ref < t[j].ref) {
      ++i;
    } else if (t[j].ref < s[i].ref) {
      ++j;
    } else {
      if (s[i].ic != t[j].ic) out.ic_conflict = true;
      ++cancelled;
      ++i;
      ++j;
    }
  }
  out.residual_empty = cancelled == s.size() && cancelled == t.size();
  return out;
}

std::string Algebra::to_string() const {
  std::ostringstream os;
  os << "{{";
  for (std::size_t i = 0; i < source.elems().size(); ++i) {
    if (i) os << ", ";
    os << ref_to_string(source.elems()[i].ref) << "@" << source.elems()[i].ic;
  }
  os << "} -> {";
  for (std::size_t i = 0; i < target.elems().size(); ++i) {
    if (i) os << ", ";
    os << ref_to_string(target.elems()[i].ref) << "@" << target.elems()[i].ic;
  }
  os << "}}";
  return os.str();
}

Algebra algebra_from_msg(const CdmMsg& msg) {
  Algebra alg;
  alg.source = AlgebraSet(msg.source);
  alg.target = AlgebraSet(msg.target);
  return alg;
}

void algebra_to_msg(Algebra alg, CdmMsg& msg) {
  msg.source = alg.source.take();
  msg.target = alg.target.take();
}

}  // namespace adgc
