#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/stopwatch.hpp"

namespace scod {

/// devicesim: a CPU-hosted simulation of the GPU execution model.
///
/// The paper's fastest variants run as CUDA kernels on an RTX 3090 with one
/// GPU thread per (satellite, sample-time) tuple. This environment has no
/// GPU, so — per the substitution policy in DESIGN.md — we reproduce the
/// *execution model* instead: explicit device memory with a capacity limit,
/// host<->device transfers with byte/bandwidth accounting, and kernel
/// launches over a (blocks x threads-per-block) index space executed by a
/// thread pool. The kernels themselves are ordinary C++ functors shared
/// with the CPU path, so the data-parallel decomposition, the CAS traffic
/// on the shared hash map, and the memory-capacity-driven parameter
/// adjustments (Section V-B) are all exercised exactly as on a real device.

/// Thrown when an allocation exceeds the simulated device memory capacity.
/// The screener catches this condition indirectly by consulting
/// `Device::memory_free()` when sizing grids, mirroring the paper's
/// automatic seconds-per-sample reduction when the candidate buffer
/// does not fit into the 24 GB of the RTX 3090.
class DeviceOutOfMemory : public std::runtime_error {
 public:
  explicit DeviceOutOfMemory(const std::string& what) : std::runtime_error(what) {}
};

/// Static description of the simulated device.
struct DeviceProperties {
  std::string name = "scod devicesim";
  /// Simulated device memory capacity in bytes (default 4 GiB so the
  /// capacity-driven behaviour of Fig. 10c is reachable at laptop scale).
  std::uint64_t memory_bytes = 4ull << 30;
  std::uint32_t max_threads_per_block = 1024;
  /// Modelled PCIe transfer bandwidth [bytes/s] used for the accounted
  /// (not wall-clock) transfer cost; ~16 GB/s matches PCIe 4.0 x16.
  double transfer_bandwidth = 16e9;
  /// Fixed modelled overhead per kernel launch [s].
  double launch_overhead = 5e-6;
};

/// Cumulative accounting of device activity; reset with Device::reset_stats().
struct DeviceStats {
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes_in_use = 0;
  std::uint64_t bytes_peak = 0;
  std::uint64_t h2d_transfers = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_transfers = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t kernels_launched = 0;
  double kernel_seconds = 0.0;

  /// Transfer time implied by the modelled bandwidth; the paper reports
  /// allocation+transfer as ~3% of total GPU time on average.
  double modelled_transfer_seconds(const DeviceProperties& props) const {
    return static_cast<double>(h2d_bytes + d2h_bytes) / props.transfer_bandwidth;
  }
};

template <typename T>
class DeviceBuffer;

class Device {
 public:
  explicit Device(DeviceProperties props = {}, ThreadPool* pool = nullptr);

  const DeviceProperties& properties() const { return props_; }
  const DeviceStats& stats() const { return stats_; }
  void reset_stats();

  std::uint64_t memory_used() const { return stats_.bytes_in_use; }
  std::uint64_t memory_free() const { return props_.memory_bytes - stats_.bytes_in_use; }

  /// Allocates an uninitialized device buffer of `count` elements.
  /// Throws DeviceOutOfMemory when the simulated capacity is exceeded.
  template <typename T>
  DeviceBuffer<T> alloc(std::size_t count);

  template <typename T>
  void copy_to_device(DeviceBuffer<T>& dst, const T* src, std::size_t count);

  template <typename T>
  void copy_to_host(T* dst, const DeviceBuffer<T>& src, std::size_t count);

  /// Launches `kernel(global_index)` for every global index in
  /// [0, total_threads). Blocks of `block_size` consecutive indices are the
  /// unit of scheduling, matching the CUDA grid/block decomposition; blocks
  /// run concurrently and in unspecified order, so kernels must use the
  /// same synchronization (atomics) they would need on a real device.
  template <typename Kernel>
  void launch(std::size_t total_threads, std::size_t block_size, Kernel&& kernel);

 private:
  template <typename T>
  friend class DeviceBuffer;

  void account_alloc(std::uint64_t bytes);
  void account_free(std::uint64_t bytes);

  DeviceProperties props_;
  ThreadPool* pool_;
  DeviceStats stats_;
};

/// Owning handle to simulated device memory. Host code must not touch the
/// contents directly — use Device::copy_to_device / copy_to_host, exactly
/// as with cudaMemcpy. Kernels receive raw pointers via device_ptr().
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(DeviceBuffer&& other) noexcept { swap(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  ~DeviceBuffer() { release(); }

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Device-side pointer for kernel arguments.
  T* device_ptr() { return data_.data(); }
  const T* device_ptr() const { return data_.data(); }

 private:
  friend class Device;

  DeviceBuffer(Device* device, std::size_t count) : device_(device), data_(count) {}

  void swap(DeviceBuffer& other) noexcept {
    std::swap(device_, other.device_);
    std::swap(data_, other.data_);
  }

  void release() {
    if (device_ != nullptr && !data_.empty()) {
      device_->account_free(data_.size() * sizeof(T));
    }
    device_ = nullptr;
    data_.clear();
    data_.shrink_to_fit();
  }

  Device* device_ = nullptr;
  std::vector<T> data_;
};

template <typename T>
DeviceBuffer<T> Device::alloc(std::size_t count) {
  account_alloc(static_cast<std::uint64_t>(count) * sizeof(T));
  return DeviceBuffer<T>(this, count);
}

template <typename T>
void Device::copy_to_device(DeviceBuffer<T>& dst, const T* src, std::size_t count) {
  if (count > dst.size()) throw std::out_of_range("copy_to_device: buffer too small");
  std::copy(src, src + count, dst.data_.begin());
  stats_.h2d_transfers += 1;
  stats_.h2d_bytes += static_cast<std::uint64_t>(count) * sizeof(T);
}

template <typename T>
void Device::copy_to_host(T* dst, const DeviceBuffer<T>& src, std::size_t count) {
  if (count > src.size()) throw std::out_of_range("copy_to_host: buffer too small");
  std::copy(src.data_.begin(), src.data_.begin() + static_cast<std::ptrdiff_t>(count), dst);
  stats_.d2h_transfers += 1;
  stats_.d2h_bytes += static_cast<std::uint64_t>(count) * sizeof(T);
}

template <typename Kernel>
void Device::launch(std::size_t total_threads, std::size_t block_size, Kernel&& kernel) {
  if (block_size == 0 || block_size > props_.max_threads_per_block)
    throw std::invalid_argument("Device::launch: invalid block size");
  stats_.kernels_launched += 1;
  if (total_threads == 0) return;
  const std::size_t blocks = (total_threads + block_size - 1) / block_size;
  Stopwatch watch;
  pool_->parallel_for(
      blocks,
      [&](std::size_t block) {
        const std::size_t begin = block * block_size;
        const std::size_t end = std::min(begin + block_size, total_threads);
        for (std::size_t i = begin; i < end; ++i) kernel(i);
      },
      /*grain=*/1);
  stats_.kernel_seconds += watch.seconds() + props_.launch_overhead;
}

}  // namespace scod
