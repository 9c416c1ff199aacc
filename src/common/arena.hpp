// Per-worker grow-only scratch arenas.
//
// The blocked kernels pack operand panels into scratch buffers on every tile
// task; those buffers must be (a) allocation-free on the hot path, (b) stable
// while older allocations are still in use (a pack buffer pointer must
// survive a later scratch request growing the arena), and (c) resident on
// the NUMA node of the worker that fills them. A grow-only chunk arena gives
// all three: chunks are never freed or reused while the arena lives, and
// only the owning thread ever writes a chunk, so Linux first-touch policy
// places each page on that worker's node when a buffer first uses it.
//
// Ownership rule: an arena is thread-local to one worker (see
// `Blocked<T>::scratch()` in kernels.cpp); nothing hands arena pointers to
// another thread. Buffers grow monotonically to the high-water mark of the
// tile sizes a worker has seen and then stop allocating entirely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/memory.hpp"

namespace exaclim::common {

class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two). Memory
  /// stays valid until the arena is destroyed — growing never invalidates
  /// earlier allocations.
  void* allocate(std::size_t bytes, std::size_t align = 64) {
    if (bytes == 0) bytes = 1;
    if (!chunks_.empty()) {
      Chunk& c = chunks_.back();
      const auto base = reinterpret_cast<std::uintptr_t>(c.mem.get());
      const std::size_t aligned =
          ((base + c.used + align - 1) & ~std::uintptr_t(align - 1)) - base;
      if (aligned + bytes <= c.size) {
        c.used = aligned + bytes;
        return c.mem.get() + aligned;
      }
    }
    // New chunk: doubling policy with a floor, so steady-state kernels hit
    // the bump path and pathological growth stays O(log) allocations.
    std::size_t size = chunks_.empty() ? kMinChunk : chunks_.back().size * 2;
    if (size < bytes + align) size = bytes + align;
    Chunk c;
    // Budget accounting: an over-budget chunk throws ResourceError naming
    // the site before any allocation (the scheduler turns it into a
    // structured TaskFailure instead of a bad_alloc abort).
    c.charge = ScopedCharge("scratch-arena", size);
    // Left untouched: only the owning thread ever writes the chunk, so each
    // page is first-touched, and placed on that thread's NUMA node, when a
    // buffer first uses it. The doubling slack beyond what the buffers use
    // stays virtual instead of resident.
    c.mem.reset(new std::byte[size]);
    c.size = size;
    chunks_.push_back(std::move(c));
    Chunk& back = chunks_.back();
    const auto base = reinterpret_cast<std::uintptr_t>(back.mem.get());
    const std::size_t aligned = (align - base % align) % align;
    back.used = aligned + bytes;
    return back.mem.get() + aligned;
  }

  /// Total bytes reserved across chunks (monitoring only).
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

  /// Frees every chunk and bumps the arena epoch so ArenaBuffers that cached
  /// pointers re-acquire. OWNER ONLY, and only at a point where no borrowed
  /// arena pointer is still live (the top of a kernel invocation, before any
  /// ensure() of that invocation).
  void trim() {
    if (chunks_.empty()) return;
    chunks_.clear();
    ++epoch_;
  }

  /// Owner-side poll of the memory-pressure ladder (rung 2): trims when the
  /// global pressure epoch moved since the last poll. Returns true if chunks
  /// were freed. Same safety contract as trim().
  bool maybe_trim_on_pressure() {
    const std::uint64_t pe = MemoryBudget::instance().pressure_epoch();
    if (pe == seen_pressure_) return false;
    seen_pressure_ = pe;
    if (chunks_.empty()) return false;
    MemoryBudget::instance().note_reclaimed(bytes_reserved());
    trim();
    return true;
  }

  /// Bumped on every trim; ArenaBuffer compares it to invalidate cached
  /// pointers.
  std::uint64_t epoch() const { return epoch_; }

 private:
  static constexpr std::size_t kMinChunk = 256 * 1024;

  struct Chunk {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size = 0;
    std::size_t used = 0;
    ScopedCharge charge;
  };
  std::vector<Chunk> chunks_;
  std::uint64_t epoch_ = 0;
  std::uint64_t seen_pressure_ = 0;
};

/// Grow-only typed buffer backed by a ScratchArena: `ensure(arena, n)`
/// returns a pointer to at least n elements, reallocating from the arena
/// only when n exceeds the high-water capacity. Contents are NOT preserved
/// across growth (pack buffers are always fully rewritten before use).
template <typename T>
class ArenaBuffer {
 public:
  T* ensure(ScratchArena& arena, std::size_t count) {
    if (epoch_ != arena.epoch()) {
      // The arena was trimmed under memory pressure since we last acquired;
      // the cached pointer is gone.
      data_ = nullptr;
      capacity_ = 0;
      epoch_ = arena.epoch();
    }
    if (count > capacity_) {
      data_ = static_cast<T*>(
          arena.allocate(count * sizeof(T), alignof(T) > 64 ? alignof(T) : 64));
      capacity_ = count;
    }
    return data_;
  }

  T* data() const { return data_; }
  std::size_t capacity() const { return capacity_; }

 private:
  T* data_ = nullptr;
  std::size_t capacity_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace exaclim::common
