// ThreadMask: a packed per-thread bit vector for the word-granular commit
// phase (ROADMAP: "word-mask Arbiter interface").
//
// The MEB arbiters of the paper (Sec. III thread selection) are exactly
// the hardware structures a word-level bitmask models naturally: pending
// and ready are S-wide handshake vectors, and the cyclic priority scans
// the grant logic performs become countr_zero over one (S <= 64) or a
// few packed 64-bit words — no per-bit proxy reads, no `% n` in the hot
// loop. The same representation backs MtChannel's cached active-thread
// mask, which is maintained directly from valid-wire writes.
//
// Invariant: bits at index >= size() (the padding of the last word) are
// always zero, so popcounts and word scans never see garbage.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "sim/snapshot.hpp"

namespace mte::mt {

class ThreadMask {
 public:
  static constexpr std::size_t kWordBits = 64;

  explicit ThreadMask(std::size_t bits)
      : bits_(bits), words_((bits + kWordBits - 1) / kWordBits, 0) {}

  ThreadMask(std::initializer_list<bool> init) : ThreadMask(init.size()) {
    std::size_t i = 0;
    for (const bool b : init) set(i++, b);
  }

  /// A mask of `bits` bits all set to `v` (padding bits stay zero).
  [[nodiscard]] static ThreadMask filled(std::size_t bits, bool v) {
    ThreadMask m(bits);
    if (v) {
      for (std::size_t i = 0; i < bits; ++i) m.set(i, true);
    }
    return m;
  }

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }

  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  void set(std::size_t i, bool v) {
    const std::uint64_t bit = std::uint64_t{1} << (i % kWordBits);
    if (v) {
      words_[i / kWordBits] |= bit;
    } else {
      words_[i / kWordBits] &= ~bit;
    }
  }

  void clear_all() noexcept {
    for (auto& w : words_) w = 0;
  }

  [[nodiscard]] bool any() const noexcept {
    for (const auto& w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  [[nodiscard]] bool none() const noexcept { return !any(); }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t c = 0;
    for (const auto& w : words_) c += static_cast<std::size_t>(std::popcount(w));
    return c;
  }

  /// True when more than one bit is set — the multi-valid protocol test,
  /// cheaper than count() > 1 on the (ubiquitous) single-word case.
  [[nodiscard]] bool more_than_one() const noexcept {
    std::size_t seen = 0;
    for (const auto& w : words_) {
      if (w == 0) continue;
      if ((w & (w - 1)) != 0) return true;  // two bits in one word
      if (++seen > 1) return true;          // bits in two words
    }
    return false;
  }

  /// Lowest set bit; size() if none.
  [[nodiscard]] std::size_t first_set() const noexcept {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w] != 0) {
        return w * kWordBits + static_cast<std::size_t>(std::countr_zero(words_[w]));
      }
    }
    return bits_;
  }

  /// First set bit at index >= from (no wrap); size() if none.
  [[nodiscard]] std::size_t first_set_at_or_after(std::size_t from) const noexcept {
    if (from >= bits_) return bits_;
    std::size_t w = from / kWordBits;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (from % kWordBits));
    while (true) {
      if (word != 0) {
        return w * kWordBits + static_cast<std::size_t>(std::countr_zero(word));
      }
      if (++w == words_.size()) return bits_;
      word = words_[w];
    }
  }

  /// First set bit cyclically from `from` (scans [from, n) then [0, from));
  /// size() if none.
  [[nodiscard]] std::size_t first_set_from(std::size_t from) const noexcept {
    const std::size_t hit = first_set_at_or_after(from);
    if (hit != bits_) return hit;
    const std::size_t wrapped = first_set();
    return wrapped < from ? wrapped : bits_;
  }

  /// First index set in BOTH masks, cyclically from `from`; a.size() if
  /// none. The arbiters' "first pending AND ready" scan. The masks must
  /// be the same size.
  [[nodiscard]] static std::size_t first_and_from(const ThreadMask& a,
                                                  const ThreadMask& b,
                                                  std::size_t from) noexcept {
    const std::size_t hit = first_and_at_or_after(a, b, from);
    if (hit != a.bits_) return hit;
    const std::size_t wrapped = first_and_at_or_after(a, b, 0);
    return wrapped < from ? wrapped : a.bits_;
  }

  [[nodiscard]] static std::size_t first_and_at_or_after(const ThreadMask& a,
                                                          const ThreadMask& b,
                                                          std::size_t from) noexcept {
    if (from >= a.bits_) return a.bits_;
    std::size_t w = from / kWordBits;
    std::uint64_t word =
        (a.words_[w] & b.words_[w]) & (~std::uint64_t{0} << (from % kWordBits));
    while (true) {
      if (word != 0) {
        return w * kWordBits + static_cast<std::size_t>(std::countr_zero(word));
      }
      if (++w == a.words_.size()) return a.bits_;
      word = a.words_[w] & b.words_[w];
    }
  }

  // --- checkpointing --------------------------------------------------------
  void save(sim::SnapshotWriter& w) const {
    w.write_u64(bits_);
    for (const std::uint64_t word : words_) w.write_u64(word);
  }

  void load(sim::SnapshotReader& r) {
    const std::uint64_t bits = r.read_u64();
    if (bits != bits_) {
      throw sim::SnapshotError("snapshot ThreadMask width " + std::to_string(bits) +
                               " does not match structural width " +
                               std::to_string(bits_));
    }
    for (auto& word : words_) word = r.read_u64();
  }

  // --- word-level access ----------------------------------------------------
  [[nodiscard]] std::size_t word_count() const noexcept { return words_.size(); }
  [[nodiscard]] std::uint64_t word(std::size_t w) const { return words_[w]; }
  /// All words, stable for the mask's lifetime (see word_ptr).
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }
  /// Stable pointer to word w — wires mirror their bool value into mask
  /// bits through this (MtChannel's valid mask). Stable because the word
  /// storage is sized once at construction and never reallocates.
  [[nodiscard]] std::uint64_t* word_ptr(std::size_t w) { return &words_[w]; }

 private:
  std::size_t bits_;
  std::vector<std::uint64_t> words_;
};

}  // namespace mte::mt
