// Unified result type for the stores' consistency checkers and repair
// paths.
//
// Every store used to report problems in its own way (empty string ==
// clean, bool, or an exception); the fault-campaign harness needs to
// classify outcomes uniformly, so `Pool::check`, `Db::check`,
// `NovaFs::fsck`, `CMap::check` and `STree::check` all return a Status:
// an error code plus a human-readable detail message.
#pragma once

#include <string>
#include <utility>

namespace xp {

enum class ErrorCode {
  kOk = 0,
  kCorruption,    // structural invariant violated (bad magic, cycle, ...)
  kMediaError,    // an uncorrectable media error (poisoned line) was hit
  kDataLoss,      // store is consistent but acknowledged data was dropped
};

class Status {
 public:
  Status() = default;

  static Status Ok() { return Status{}; }
  static Status Corruption(std::string msg) {
    return Status{ErrorCode::kCorruption, std::move(msg)};
  }
  static Status MediaFault(std::string msg) {
    return Status{ErrorCode::kMediaError, std::move(msg)};
  }
  static Status DataLoss(std::string msg) {
    return Status{ErrorCode::kDataLoss, std::move(msg)};
  }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  const char* code_name() const {
    switch (code_) {
      case ErrorCode::kOk: return "OK";
      case ErrorCode::kCorruption: return "CORRUPTION";
      case ErrorCode::kMediaError: return "MEDIA_ERROR";
      case ErrorCode::kDataLoss: return "DATA_LOSS";
    }
    return "?";
  }

  std::string to_string() const {
    if (ok()) return "OK";
    return std::string(code_name()) + ": " + msg_;
  }

 private:
  Status(ErrorCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  ErrorCode code_ = ErrorCode::kOk;
  std::string msg_;
};

}  // namespace xp
