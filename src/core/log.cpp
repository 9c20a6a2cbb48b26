#include "core/log.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>

namespace dynmo {

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
  std::scoped_lock lock(mu_);
  sink_ = std::move(sink);
}

void Logger::write(LogLevel level, std::string_view msg) {
  // ISO-8601 UTC with millisecond precision, e.g. 2026-02-14T09:31:07.042Z.
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &secs);
#else
  gmtime_r(&secs, &tm);
#endif
  // Sized for the format's worst case (every int field at full width), so
  // the call can never truncate; a real date fills 24 bytes.
  char stamp[80];
  std::snprintf(stamp, sizeof(stamp), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));

  std::scoped_lock lock(mu_);
  if (sink_) {
    char line[sizeof(stamp) + 32];
    const int n = std::snprintf(line, sizeof(line), "%s [dynmo %-5s] ",
                                stamp, to_string(level));
    std::string full(line, static_cast<std::size_t>(n));
    full.append(msg);
    sink_(level, full);
    return;
  }
  std::fprintf(stderr, "%s [dynmo %-5s] %.*s\n", stamp, to_string(level),
               static_cast<int>(msg.size()), msg.data());
}

}  // namespace dynmo
