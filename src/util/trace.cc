#include "util/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "util/logging.h"
#include "util/output_file.h"

namespace act::util {

namespace detail {

std::atomic<bool> g_trace_enabled{false};

} // namespace detail

namespace {

/** One buffered trace event; categories are string literals. */
struct TraceEvent
{
    const char *category = nullptr;
    std::string name;
    char phase = 'X';
    std::uint32_t tid = 0;
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
};

std::uint32_t
currentTid()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t tid =
        next.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

/**
 * Global event buffer. A single mutex is fine here: events are span-
 * or chunk-granular (never per-sample), and the buffer is only touched
 * while tracing is enabled. Leaked on purpose so pool workers can
 * still record during static destruction.
 */
class TraceCollector
{
  public:
    static TraceCollector &
    instance()
    {
        static TraceCollector *collector = new TraceCollector;
        return *collector;
    }

    void
    append(TraceEvent event)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events_.push_back(std::move(event));
        unwritten_ = true;
    }

    void
    setFile(const std::string &path)
    {
        flush(OutputFile::OnError::Fatal);
        std::lock_guard<std::mutex> lock(mutex_);
        path_ = path;
        events_.clear();
        unwritten_ = !path_.empty();
        detail::g_trace_enabled.store(!path_.empty(),
                                      std::memory_order_relaxed);
        if (!path_.empty() && !atexit_registered_) {
            atexit_registered_ = true;
            // exit() must not be re-entered from an atexit handler, so
            // this last flush only warns.
            std::atexit([] {
                TraceCollector::instance().flush(OutputFile::OnError::Warn);
            });
        }
    }

    std::string
    file() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return path_;
    }

    /**
     * Write the buffer to the current file unless nothing was recorded
     * since the last write. The document is rendered under the lock and
     * written outside it: a fatal write exits through the atexit flush,
     * which takes the lock again and, finding nothing unwritten, leaves
     * the file alone.
     */
    void
    flush(OutputFile::OnError on_error)
    {
        std::string path;
        std::string body;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (path_.empty() || !unwritten_)
                return;
            unwritten_ = false;
            path = path_;
            body = renderLocked();
        }
        OutputFile out(std::move(path), on_error);
        out.write(body);
        out.close();
    }

  private:
    TraceCollector() = default;

    /** Escape for a JSON string body (quotes, backslash, control). */
    static void
    appendEscaped(std::string &out, const std::string &text)
    {
        for (const char c : text) {
            switch (c) {
              case '"':
                out += "\\\"";
                break;
              case '\\':
                out += "\\\\";
                break;
              case '\n':
                out += "\\n";
                break;
              case '\t':
                out += "\\t";
                break;
              case '\r':
                out += "\\r";
                break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buffer;
                } else {
                    out += c;
                }
            }
        }
    }

    /** Chrome "ts"/"dur" are microseconds; keep ns as the fraction. */
    static void
    appendMicros(std::string &out, std::uint64_t ns)
    {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%llu.%03llu",
                      static_cast<unsigned long long>(ns / 1000),
                      static_cast<unsigned long long>(ns % 1000));
        out += buffer;
    }

    std::string
    renderLocked() const
    {
        std::string body;
        body.reserve(events_.size() * 96 + 192);
        body += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
        // Wall-clock anchor for cross-process trace assembly: event
        // timestamps are steady-clock offsets from the process trace
        // epoch, and this metadata event records where that epoch sits
        // on the wall clock (viewers ignore unknown "M" names).
        body += "{\"name\":\"trace_epoch\",\"cat\":\"__metadata\","
                "\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,"
                "\"args\":{\"wall_epoch_us\":";
        body += std::to_string(detail::traceWallEpochUs());
        body += "}}";
        for (const TraceEvent &event : events_) {
            body += ",{\"name\":\"";
            appendEscaped(body, event.name);
            body += "\",\"cat\":\"";
            appendEscaped(body, event.category);
            body += "\",\"ph\":\"";
            body += event.phase;
            body += "\",\"pid\":1,\"tid\":";
            body += std::to_string(event.tid);
            body += ",\"ts\":";
            appendMicros(body, event.ts_ns);
            if (event.phase == 'X') {
                body += ",\"dur\":";
                appendMicros(body, event.dur_ns);
            } else if (event.phase == 'i') {
                body += ",\"s\":\"t\"";
            }
            body += '}';
        }
        body += "]}\n";
        return body;
    }

    mutable std::mutex mutex_;
    std::string path_;
    std::vector<TraceEvent> events_;
    /** Set by a new file or event, cleared when a write is attempted. */
    bool unwritten_ = false;
    bool atexit_registered_ = false;
};

/** Parse ACT_TRACE once at startup; an empty value warns. */
struct TraceEnvInit
{
    TraceEnvInit()
    {
        const char *env = std::getenv("ACT_TRACE");
        if (env == nullptr)
            return;
        if (*env == '\0') {
            warn("ignoring empty ACT_TRACE value "
                 "(expected a file path)");
            return;
        }
        setTraceFile(env);
    }
} g_trace_env_init;

} // namespace

namespace detail {

namespace {

/** The steady-clock trace epoch and its wall-clock position, captured
 *  together so the pair names one instant. */
struct TraceEpoch
{
    std::chrono::steady_clock::time_point steady;
    std::uint64_t wall_us;

    TraceEpoch()
        : steady(std::chrono::steady_clock::now()),
          wall_us(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::system_clock::now()
                      .time_since_epoch())
                  .count()))
    {}
};

const TraceEpoch &
traceEpoch()
{
    static const TraceEpoch epoch;
    return epoch;
}

} // namespace

std::uint64_t
traceNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - traceEpoch().steady)
            .count());
}

std::uint64_t
traceWallEpochUs()
{
    return traceEpoch().wall_us;
}

void
traceComplete(const char *category, std::string name,
              std::uint64_t start_ns, std::uint64_t end_ns)
{
    TraceEvent event;
    event.category = category;
    event.name = std::move(name);
    event.phase = 'X';
    event.tid = currentTid();
    event.ts_ns = start_ns;
    event.dur_ns = end_ns - start_ns;
    TraceCollector::instance().append(std::move(event));
}

} // namespace detail

void
setTraceFile(const std::string &path)
{
    TraceCollector::instance().setFile(path);
}

std::string
traceFile()
{
    return TraceCollector::instance().file();
}

void
flushTrace()
{
    TraceCollector::instance().flush(OutputFile::OnError::Fatal);
}

void
traceInstant(const char *category, std::string name)
{
    if (!traceEnabled())
        return;
    TraceEvent event;
    event.category = category;
    event.name = std::move(name);
    event.phase = 'i';
    event.tid = currentTid();
    event.ts_ns = detail::traceNowNs();
    TraceCollector::instance().append(std::move(event));
}

} // namespace act::util
