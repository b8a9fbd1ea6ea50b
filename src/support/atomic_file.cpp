#include "support/atomic_file.hpp"

#include <cstdio>
#include <utility>

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace rbs {

bool fsync_stream(std::FILE* file) {
  if (file == nullptr) return false;
  if (std::fflush(file) != 0) return false;
#if defined(_WIN32)
  return _commit(_fileno(file)) == 0;
#else
  return ::fsync(fileno(file)) == 0;
#endif
}

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {
  out_ = std::fopen(tmp_path_.c_str(), "wb");
  ok_ = out_ != nullptr;
}

AtomicFile::~AtomicFile() {
  if (out_ != nullptr || (ok_ && !committed_)) commit();
}

AtomicFile::AtomicFile(AtomicFile&& other) noexcept
    : path_(std::move(other.path_)),
      tmp_path_(std::move(other.tmp_path_)),
      out_(other.out_),
      ok_(other.ok_),
      committed_(other.committed_) {
  other.out_ = nullptr;
  other.ok_ = false;
  other.committed_ = true;
}

AtomicFile& AtomicFile::operator=(AtomicFile&& other) noexcept {
  if (this != &other) {
    if (out_ != nullptr) commit();
    path_ = std::move(other.path_);
    tmp_path_ = std::move(other.tmp_path_);
    out_ = other.out_;
    ok_ = other.ok_;
    committed_ = other.committed_;
    other.out_ = nullptr;
    other.ok_ = false;
    other.committed_ = true;
  }
  return *this;
}

bool AtomicFile::write(const std::string& data) {
  if (out_ == nullptr) return false;
  if (data.empty()) return true;
  if (std::fwrite(data.data(), 1, data.size(), out_) != data.size()) ok_ = false;
  return ok_;
}

void AtomicFile::close_tmp() {
  if (out_ != nullptr) {
    if (std::fclose(out_) != 0) ok_ = false;
    out_ = nullptr;
  }
}

bool AtomicFile::commit() {
  if (committed_) return ok_;
  committed_ = true;
  if (out_ == nullptr) {
    ok_ = false;
    return false;
  }
  if (!fsync_stream(out_)) ok_ = false;
  close_tmp();
  if (!ok_) {
    std::remove(tmp_path_.c_str());
    return false;
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    ok_ = false;
    std::remove(tmp_path_.c_str());
  }
  return ok_;
}

}  // namespace rbs
