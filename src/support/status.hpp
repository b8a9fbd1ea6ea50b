// Recoverable-error plumbing for the I/O and runtime boundaries.
//
// The analysis core works on validated in-memory task sets and stays
// exception-free by construction; the *boundaries* -- task-set files, CLI
// flags, simulator configurations, serialized traces -- receive arbitrary
// input and must reject it without aborting deep inside DBF math or the
// event loop. `Status` carries an ok/error verdict with a human-readable
// message; `Expected<T>` couples it with a value for parse-or-fail APIs.
//
// Header-only on purpose: every layer (core, sim, support, tools) can report
// errors through the same type without adding link-time dependencies.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace rbs {

/// Machine-readable classification of a non-ok Status. The plain `kError`
/// covers parse/IO/validation failures; `kOverloaded` is the analysis
/// server's typed load-shedding verdict (service/admission.hpp): the request
/// was well-formed but deliberately rejected to protect higher-criticality
/// traffic, so the caller may retry later rather than fix its input.
enum class StatusCode : std::uint8_t { kOk, kError, kOverloaded };

/// An ok/error verdict with a diagnostic message (empty iff ok). The class
/// itself is [[nodiscard]]: a dropped Status is a dropped error.
class [[nodiscard]] Status {
 public:
  /// Default-constructed status is ok.
  Status() = default;

  [[nodiscard]] static Status ok() { return Status(); }
  [[nodiscard]] static Status error(std::string message) {
    Status s;
    s.message_ = std::move(message);
    s.code_ = StatusCode::kError;
    return s;
  }
  /// Typed load-shed verdict (see StatusCode::kOverloaded). Not ok.
  [[nodiscard]] static Status overloaded(std::string message) {
    Status s;
    s.message_ = std::move(message);
    s.code_ = StatusCode::kOverloaded;
    return s;
  }

  [[nodiscard]] bool is_ok() const { return code_ == StatusCode::kOk; }
  explicit operator bool() const { return is_ok(); }
  [[nodiscard]] bool is_overloaded() const { return code_ == StatusCode::kOverloaded; }
  [[nodiscard]] const std::string& message() const { return message_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value of type T or the Status explaining why there is none. Like
/// Status, [[nodiscard]] at the class level: parse-or-fail results must be
/// tested, not dropped.
template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Expected(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!status_.is_ok() && "Expected constructed from an ok Status carries no value");
    if (status_.is_ok()) status_ = Status::error("internal: ok status without value");
  }

  [[nodiscard]] bool is_ok() const { return value_.has_value(); }
  explicit operator bool() const { return is_ok(); }

  [[nodiscard]] const Status& status() const { return status_; }
  [[nodiscard]] const std::string& error_message() const { return status_.message(); }

  /// Value access; throws std::logic_error when the Expected holds an error
  /// (programming bug -- callers must test is_ok() first).
  [[nodiscard]] const T& value() const& {
    if (!value_) throw std::logic_error("Expected::value() on error: " + status_.message());
    return *value_;
  }
  [[nodiscard]] T& value() & {
    if (!value_) throw std::logic_error("Expected::value() on error: " + status_.message());
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    if (!value_) throw std::logic_error("Expected::value() on error: " + status_.message());
    return std::move(*value_);
  }

  [[nodiscard]] T value_or(T fallback) const { return value_ ? *value_ : std::move(fallback); }

  /// Pointer-style access after a truthiness test, mirroring std::optional:
  /// `if (!report) ...; use(report->field);`. Same throwing contract as
  /// value() -- dereferencing an error is a programming bug, not UB.
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T& operator*() & { return value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace rbs
