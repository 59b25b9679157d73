#include "nn/checkpoint.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "tensor/check.h"

namespace dar {
namespace nn {

namespace {

constexpr char kMagic[] = "DARCKPT";
constexpr int kVersion = 2;

// max_digits10 significant decimal digits round-trip any finite IEEE-754
// single-precision value bit-exactly through text.
constexpr int kFloatDigits = std::numeric_limits<float>::max_digits10;

void WriteParams(std::ostringstream& os, const Module& module) {
  std::vector<NamedParameter> params = module.Parameters();
  os << "params " << params.size() << '\n';
  for (const NamedParameter& p : params) {
    const Tensor& value = p.variable.value();
    os << "name " << p.name << '\n';
    os << "shape";
    for (int64_t d : value.shape()) os << ' ' << d;
    os << '\n';
    for (int64_t i = 0; i < value.numel(); ++i) {
      if (i) os << ' ';
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.*g", kFloatDigits, value.flat(i));
      os << buf;
    }
    os << '\n';
  }
}

/// Reads the rest of the current line as one record of exactly `n` fields
/// into `out[0, n)`. Records are lines, so a record never borrows fields
/// from the next one: a misaligned file fails here instead of loading with
/// every later value shifted.
template <typename T>
bool ReadRecord(std::istream& is, int64_t n, T* out) {
  std::string text;
  if (!std::getline(is, text)) return false;
  std::istringstream line(text);
  for (int64_t i = 0; i < n; ++i) {
    if (!(line >> out[i])) return false;
  }
  return (line >> std::ws).eof();
}

/// Rejects anything but whitespace after the last record.
bool ReadEnd(std::istream& is, std::string& error) {
  if ((is >> std::ws).eof()) return true;
  error = "unexpected bytes after the last record";
  return false;
}

/// Parses one module's parameter records into `staged` (one tensor per
/// parameter, in Parameters() order), validating names and shapes against
/// `module` without modifying it. Loads commit only after the whole file
/// has validated, so a rejected checkpoint leaves no partial state.
bool ReadParams(std::istringstream& is, const Module& module,
                std::vector<Tensor>& staged, std::string& error) {
  std::string keyword;
  size_t count = 0;
  if (!(is >> keyword >> count) || keyword != "params") {
    error = "missing params header";
    return false;
  }
  std::vector<NamedParameter> params = module.Parameters();
  if (count != params.size()) {
    std::ostringstream os;
    os << "parameter count mismatch: checkpoint has " << count
       << ", module has " << params.size();
    error = os.str();
    return false;
  }
  staged.reserve(params.size());
  for (const NamedParameter& p : params) {
    std::string name;
    if (!(is >> keyword >> name) || keyword != "name") {
      error = "malformed record (expected 'name')";
      return false;
    }
    if (name != p.name) {
      error = "parameter name mismatch: checkpoint '" + name +
              "' vs module '" + p.name + "'";
      return false;
    }
    if (!(is >> keyword) || keyword != "shape") {
      error = "malformed record (expected 'shape') for " + name;
      return false;
    }
    Shape expected = p.variable.value().shape();
    Shape got(expected.size());
    if (!ReadRecord(is, static_cast<int64_t>(got.size()), got.data())) {
      error = "shape record for " + name +
              " has the wrong number of fields (expected " +
              std::to_string(got.size()) + ")";
      return false;
    }
    if (got != expected) {
      error = "shape mismatch for " + name + ": checkpoint " +
              ShapeToString(got) + " vs module " + ShapeToString(expected);
      return false;
    }
    Tensor value(expected);
    if (!ReadRecord(is, value.numel(), value.data())) {
      error = "values record for " + name +
              " has the wrong number of fields (expected " +
              std::to_string(value.numel()) + ")";
      return false;
    }
    staged.push_back(std::move(value));
  }
  return true;
}

void CommitParams(Module& module, std::vector<Tensor>& staged) {
  std::vector<NamedParameter> params = module.Parameters();
  DAR_CHECK_EQ(params.size(), staged.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].variable.mutable_value() = std::move(staged[i]);
  }
}

bool ReadHeader(std::istringstream& is, std::string& error) {
  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != kMagic) {
    error = "not a DAR checkpoint (bad magic)";
    return false;
  }
  if (version != kVersion) {
    std::ostringstream os;
    os << "unsupported checkpoint version " << version << " (expected "
       << kVersion << ")";
    error = os.str();
    return false;
  }
  return true;
}

std::string ReadFileOrEmpty(const std::string& path, bool& ok) {
  std::ifstream file(path);
  ok = static_cast<bool>(file);
  if (!ok) return std::string();
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Replaces `path` with `text` so that no reader ever sees a torn file: the
/// text goes to a temp file in the same directory, which is flushed to disk
/// and then renamed over the target. On any failure the temp file is
/// removed and the old file, if any, is left intact.
bool WriteFileAtomically(const std::string& path, const std::string& text) {
  std::string temp = path + ".tmp.XXXXXX";
  const int fd = ::mkstemp(temp.data());
  if (fd < 0) return false;
  // mkstemp creates the file 0600; give it the mode a plain create gets
  // under the usual umask, so other readers (e.g. a server) can open it.
  bool ok = ::fchmod(fd, 0644) == 0;
  for (size_t done = 0; ok && done < text.size();) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    if (ok) done += static_cast<size_t>(n);
  }
  ok = ok && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  ok = ok && ::rename(temp.c_str(), path.c_str()) == 0;
  if (!ok) ::unlink(temp.c_str());
  return ok;
}

}  // namespace

std::string SerializeCheckpoint(const std::vector<NamedModule>& modules) {
  std::ostringstream os;
  os << kMagic << ' ' << kVersion << '\n';
  os << "modules " << modules.size() << '\n';
  for (const NamedModule& m : modules) {
    DAR_CHECK(m.module != nullptr);
    os << "module " << m.name << '\n';
    WriteParams(os, *m.module);
  }
  return os.str();
}

CheckpointResult DeserializeCheckpoint(const std::vector<NamedModule>& modules,
                                       const std::string& text) {
  CheckpointResult result;
  std::istringstream is(text);
  if (!ReadHeader(is, result.error)) return result;
  std::string keyword;
  size_t count = 0;
  if (!(is >> keyword >> count) || keyword != "modules") {
    result.error = "missing modules header";
    return result;
  }
  if (count != modules.size()) {
    std::ostringstream os;
    os << "module count mismatch: checkpoint has " << count << ", target has "
       << modules.size();
    result.error = os.str();
    return result;
  }
  std::vector<std::vector<Tensor>> staged(modules.size());
  for (size_t k = 0; k < modules.size(); ++k) {
    const NamedModule& m = modules[k];
    DAR_CHECK(m.module != nullptr);
    std::string name;
    if (!(is >> keyword >> name) || keyword != "module") {
      result.error = "malformed bundle (expected 'module')";
      return result;
    }
    if (name != m.name) {
      result.error = "module name mismatch: checkpoint '" + name +
                     "' vs target '" + m.name + "'";
      return result;
    }
    if (!ReadParams(is, *m.module, staged[k], result.error)) {
      result.error = "module '" + m.name + "': " + result.error;
      return result;
    }
  }
  if (!ReadEnd(is, result.error)) return result;
  for (size_t k = 0; k < modules.size(); ++k) {
    CommitParams(*modules[k].module, staged[k]);
  }
  result.ok = true;
  return result;
}

bool SaveCheckpoint(const std::vector<NamedModule>& modules,
                    const std::string& path) {
  return WriteFileAtomically(path, SerializeCheckpoint(modules));
}

CheckpointResult LoadCheckpoint(const std::vector<NamedModule>& modules,
                                const std::string& path) {
  bool ok = false;
  std::string text = ReadFileOrEmpty(path, ok);
  if (!ok) {
    CheckpointResult result;
    result.error = "cannot open file: " + path;
    return result;
  }
  return DeserializeCheckpoint(modules, text);
}

}  // namespace nn
}  // namespace dar
