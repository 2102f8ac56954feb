/**
 * @file
 * The one checked file writer. Every file the library writes -- JSON
 * documents, Prometheus text, trace profiles -- goes through
 * OutputFile, so a file that cannot be opened, written or closed ends
 * in one message that names the path (and the system's reason), never
 * in a silently short file.
 */

#ifndef ACT_UTIL_OUTPUT_FILE_H
#define ACT_UTIL_OUTPUT_FILE_H

#include <string>
#include <string_view>

namespace act::util {

/** A file opened for writing, truncated, and written front to back. */
class OutputFile
{
  public:
    /**
     * What a failure does. Fatal exits through fatal(); Warn emits one
     * warn() and drops every later write, for callers that must not
     * exit (an atexit handler).
     */
    enum class OnError { Fatal, Warn };

    /** Open (create or truncate) @p path. */
    explicit OutputFile(std::string path, OnError on_error = OnError::Fatal);

    /** Closes a file that close() was not called on, unchecked. */
    ~OutputFile();

    OutputFile(const OutputFile &) = delete;
    OutputFile &operator=(const OutputFile &) = delete;

    /** Write all of @p bytes (retrying short writes). */
    void write(std::string_view bytes);

    /** Close the file; true when it was opened, written and closed
     *  without a failure. */
    bool close();

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    OnError on_error_;
    int fd_ = -1;
    bool failed_ = false;

    void fail(const char *what, int error);
};

} // namespace act::util

#endif // ACT_UTIL_OUTPUT_FILE_H
