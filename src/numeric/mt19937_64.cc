#include "numeric/mt19937_64.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/check.h"
#include "numeric/mt_kernels.h"

namespace zonestream::numeric {

void Mt19937_64::seed(result_type seed_value) {
  x_[0] = seed_value;
  for (size_t i = 1; i < kN; ++i) {
    x_[i] = 6364136223846793005ull * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
  }
  p_ = kN;
  has_next_ = false;
}

void Mt19937_64::AdvanceBlock() {
  if (has_next_) {
    std::memcpy(x_, next_, sizeof(x_));
    has_next_ = false;
  } else {
    internal::MtTwistBlock(x_, x_);
  }
  p_ = 0;
}

void Mt19937_64::EnsureNext() {
  if (has_next_) return;
  internal::MtTwistBlock(x_, next_);
  has_next_ = true;
}

void Mt19937_64::FillRaw(uint64_t* out, size_t n) {
  ZS_CHECK(out != nullptr || n == 0);
  while (n > 0) {
    if (p_ >= kN) AdvanceBlock();
    size_t take = kN - p_;
    if (take > n) take = n;
    internal::MtTemperRange(x_ + p_, out, take);
    p_ += take;
    out += take;
    n -= take;
  }
}

void Mt19937_64::PeekRaw(uint64_t* out, size_t k) {
  ZS_CHECK_LE(k, kMaxPeek);
  ZS_CHECK(out != nullptr || k == 0);
  if (k == 0) return;
  // Rolling an exhausted block here is state-neutral: "end of block" and
  // "start of the twisted successor" are the same logical position.
  if (p_ >= kN) AdvanceBlock();
  const size_t from_current = std::min(k, kN - p_);
  internal::MtTemperRange(x_ + p_, out, from_current);
  if (from_current < k) {
    EnsureNext();
    internal::MtTemperRange(next_, out + from_current, k - from_current);
  }
}

void Mt19937_64::AdvanceRaw(size_t k) {
  ZS_CHECK_LE(k, kMaxPeek);
  p_ += k;
  if (p_ > kN) {
    const size_t overshoot = p_ - kN;
    AdvanceBlock();  // consumes next_ if peeked, else twists; sets p_ = 0
    p_ = overshoot;
  }
  // p_ == kN exactly: leave it; the next draw rolls the block lazily.
}

std::string Mt19937_64::StateText() const {
  // libstdc++'s format: decimal, x[0..311] then the position, each
  // followed by one space except the last.
  constexpr size_t kMaxWordChars = 20;  // digits of 2^64 - 1
  std::string text((kN + 1) * (kMaxWordChars + 1), '\0');
  char* out = text.data();
  char* const end = out + text.size();
  for (size_t i = 0; i < kN; ++i) {
    out = std::to_chars(out, end, x_[i]).ptr;
    *out++ = ' ';
  }
  out = std::to_chars(out, end, p_).ptr;
  text.resize(static_cast<size_t>(out - text.data()));
  return text;
}

std::ostream& operator<<(std::ostream& os, const Mt19937_64& e) {
  return os << e.StateText();
}

std::istream& operator>>(std::istream& is, Mt19937_64& e) {
  const auto flags = is.flags();
  is.flags(std::ios_base::dec | std::ios_base::skipws);
  uint64_t x[Mt19937_64::kN];
  size_t p = 0;
  for (size_t i = 0; i < Mt19937_64::kN && is; ++i) is >> x[i];
  is >> p;
  if (is && p <= Mt19937_64::kN) {
    for (size_t i = 0; i < Mt19937_64::kN; ++i) e.x_[i] = x[i];
    e.p_ = p;
    e.has_next_ = false;
  } else if (is) {
    is.setstate(std::ios_base::failbit);
  }
  is.flags(flags);
  return is;
}

}  // namespace zonestream::numeric
