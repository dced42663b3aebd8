#pragma once

#include <errno.h>
#include <sys/socket.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wire/protocol.hpp"

namespace mpct::net {

/// Splits one connection's byte stream into wire frames; every receive
/// path in net (the server loop, the client, replay) reads through one.
///
/// recv() lands in a kReadChunk array on the calling thread's stack,
/// never zero-filled.  With nothing left over from earlier reads,
/// complete frames are delivered straight from that chunk; only a
/// partial tail is copied into the reader, and that storage is released
/// as soon as the tail completes.  The frame pointer handed to the
/// callback is valid only during the call.
class FrameReader {
 public:
  /// Bytes per recv(); a larger frame accumulates over several reads.
  static constexpr std::size_t kReadChunk = 64 * 1024;

  enum class Status {
    Read,       ///< bytes arrived; every complete frame was delivered
    Again,      ///< nothing to read now (EAGAIN, EWOULDBLOCK, EINTR)
    Closed,     ///< the peer closed the stream
    Failed,     ///< recv() failed; errno says why
    BadStream,  ///< a frame header failed wire::scan_frame; see error
    Stopped,    ///< the callback returned false
  };
  struct Result {
    Status status = Status::Again;
    std::size_t bytes = 0;  ///< received by this read
    wire::WireError error;  ///< BadStream only
  };

  /// One recv() from @p fd, then on_frame(scan, frame) for each complete
  /// frame in order.  Any status but Read or Again ends the stream and
  /// drops a pending tail.
  template <typename OnFrame>
  Result read(int fd, OnFrame&& on_frame) {
    std::uint8_t chunk[kReadChunk];
    Result result = receive(fd, chunk);
    if (result.status != Status::Read) return result;
    const std::uint8_t* data = chunk;
    std::size_t size = result.bytes;
    if (!partial_.empty()) {
      partial_.insert(partial_.end(), chunk, chunk + size);
      data = partial_.data();
      size = partial_.size();
    }
    std::size_t offset = 0;
    while (offset < size) {
      const wire::FrameScan scan =
          wire::scan_frame(data + offset, size - offset);
      if (scan.state == wire::FrameScan::State::NeedMore) break;
      if (scan.state == wire::FrameScan::State::Bad) {
        result = {Status::BadStream, result.bytes, scan.error};
        break;
      }
      if (!on_frame(scan, data + offset)) {
        result.status = Status::Stopped;
        break;
      }
      offset += scan.frame_size;
    }
    keep_tail(data + offset, size - offset, result.status == Status::Read);
    return result;
  }

  /// Capacity held for a partial frame (0 between frames).
  std::size_t held_bytes() const { return partial_.capacity(); }
  /// Drop any partial frame and release its storage.
  void reset() { std::vector<std::uint8_t>().swap(partial_); }

 private:
  static Result receive(int fd, std::uint8_t* chunk) {
    const ssize_t n = ::recv(fd, chunk, kReadChunk, 0);
    if (n > 0) return {Status::Read, static_cast<std::size_t>(n), {}};
    if (n == 0) return {Status::Closed, 0, {}};
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return {};
    return {Status::Failed, 0, {}};
  }

  void keep_tail(const std::uint8_t* tail, std::size_t size, bool keep) {
    if (!keep || size == 0) {
      reset();
    } else if (size != partial_.size()) {
      // A fresh right-sized copy (the tail may live in partial_ itself):
      // the frames just delivered stop holding memory.
      std::vector<std::uint8_t>(tail, tail + size).swap(partial_);
    }
  }

  std::vector<std::uint8_t> partial_;
};

}  // namespace mpct::net
