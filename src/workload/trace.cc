#include "workload/trace.h"

#include <cctype>
#include <cstdio>
#include <sstream>
#include <utility>

namespace lruk {

TraceWorkload::TraceWorkload(std::vector<AccessRecord> refs)
    : refs_(std::move(refs)) {
  LRUK_ASSERT(!refs_.empty(), "trace must contain at least one reference");
  for (const AccessRecord& ref : refs_) {
    if (ref.page + 1 > num_pages_) num_pages_ = ref.page + 1;
  }
}

AccessRecord TraceWorkload::Next() {
  AccessRecord ref = refs_[pos_ % refs_.size()];
  ++pos_;
  return ref;
}

Result<std::vector<AccessRecord>> ParseTrace(const std::string& text) {
  std::vector<AccessRecord> refs;
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip leading whitespace; skip blanks and comments.
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    std::istringstream fields(line.substr(start));
    uint64_t page = 0;
    if (!(fields >> page)) {
      return Status::InvalidArgument("trace line " + std::to_string(line_no) +
                                     ": expected a page id");
    }
    AccessRecord ref;
    ref.page = page;
    std::string type;
    if (fields >> type) {
      if (type == "W" || type == "w") {
        ref.type = AccessType::kWrite;
      } else if (type == "R" || type == "r") {
        ref.type = AccessType::kRead;
      } else {
        return Status::InvalidArgument("trace line " +
                                       std::to_string(line_no) +
                                       ": bad access type '" + type + "'");
      }
    }
    uint32_t process = 0;
    if (fields >> process) {
      ref.process = process;
    } else if (!fields.eof()) {
      return Status::InvalidArgument("trace line " + std::to_string(line_no) +
                                     ": bad process id");
    }
    refs.push_back(ref);
  }
  if (refs.empty()) {
    return Status::InvalidArgument("trace contains no references");
  }
  return refs;
}

Result<std::vector<AccessRecord>> ReadTraceFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open trace file: " + path);
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IoError("error reading trace file: " + path);
  }
  return ParseTrace(text);
}

Status WriteTraceFile(const std::string& path,
                      const std::vector<AccessRecord>& refs) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create trace file: " + path);
  }
  std::fprintf(f, "# lruk trace: %zu references (page type process)\n",
               refs.size());
  for (const AccessRecord& ref : refs) {
    std::fprintf(f, "%llu %c %u\n",
                 static_cast<unsigned long long>(ref.page),
                 ref.type == AccessType::kWrite ? 'W' : 'R', ref.process);
  }
  bool write_error = std::ferror(f) != 0;
  if (std::fclose(f) != 0) write_error = true;
  if (write_error) {
    return Status::IoError("error writing trace file: " + path);
  }
  return Status::Ok();
}

}  // namespace lruk
