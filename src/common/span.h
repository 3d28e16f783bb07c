#ifndef SWIM_COMMON_SPAN_H_
#define SWIM_COMMON_SPAN_H_

#include <cstddef>
#include <type_traits>

namespace swim {

/// Read-only view over a contiguous sequence — the sliver of std::span
/// (C++20) this codebase needs: columnar trace views hand out columns of
/// mapped file bytes as Spans, and Scheduler::PickJob reads the replay
/// engines' job tables through them without copying.
template <typename T>
class Span {
 public:
  constexpr Span() noexcept = default;
  constexpr Span(const T* data, size_t size) noexcept
      : data_(data), size_(size) {}

  /// Implicit view of any contiguous container whose data() yields
  /// something convertible to const T* (std::vector, std::array, ...).
  template <typename C,
            typename = std::enable_if_t<std::is_convertible_v<
                decltype(std::declval<const C&>().data()), const T*>>>
  constexpr Span(const C& container) noexcept  // NOLINT
      : data_(container.data()), size_(container.size()) {}

  constexpr const T* data() const noexcept { return data_; }
  constexpr size_t size() const noexcept { return size_; }
  constexpr bool empty() const noexcept { return size_ == 0; }
  constexpr const T& operator[](size_t i) const { return data_[i]; }
  constexpr const T* begin() const noexcept { return data_; }
  constexpr const T* end() const noexcept { return data_ + size_; }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace swim

#endif  // SWIM_COMMON_SPAN_H_
