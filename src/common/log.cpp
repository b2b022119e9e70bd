#include "common/log.hpp"

#include <cstdarg>

namespace blap {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_sink(Sink sink) {
  std::shared_ptr<const Sink> next =
      sink ? std::make_shared<const Sink>(std::move(sink)) : nullptr;
  std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_ = std::move(next);
}

std::shared_ptr<const Logger::Sink> Logger::current_sink() const {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  return sink_;
}

void Logger::log(LogLevel level, const std::string& component, const std::string& msg) {
  if (!enabled(level)) return;
  // Grab a reference under the lock, call outside it: a concurrent
  // set_sink() can retire the sink but not destroy it under our feet.
  if (const std::shared_ptr<const Sink> sink = current_sink()) {
    (*sink)(level, component, msg);
    return;
  }
  std::fprintf(stderr, "[%-5s] %-12s %s\n", to_string(level), component.c_str(), msg.c_str());
}

namespace {

/// Formats into a stack buffer and appends; output that does not fit is
/// formatted a second time straight into `out`'s own storage.
void vappend_fmt(std::string& out, const char* fmt, va_list args) {
  char buf[256];
  va_list retry;
  va_copy(retry, args);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  if (n >= 0 && static_cast<std::size_t>(n) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(n));
  } else if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt, retry);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(retry);
}

}  // namespace

std::string strfmt(const char* fmt, ...) {
  std::string out;
  va_list args;
  va_start(args, fmt);
  vappend_fmt(out, fmt, args);
  va_end(args);
  return out;
}

void append_fmt(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  vappend_fmt(out, fmt, args);
  va_end(args);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          append_fmt(out, "\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace blap
