#include "util/output_file.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "util/logging.h"

namespace act::util {

OutputFile::OutputFile(std::string path, OnError on_error)
    : path_(std::move(path)), on_error_(on_error)
{
    do {
        fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                     0666);
    } while (fd_ < 0 && errno == EINTR);
    if (fd_ < 0)
        fail("cannot write", errno);
}

OutputFile::~OutputFile()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
OutputFile::fail(const char *what, int error)
{
    failed_ = true;
    if (on_error_ == OnError::Fatal)
        fatal(what, " '", path_, "': ", std::strerror(error));
    warn(what, " '", path_, "': ", std::strerror(error));
}

void
OutputFile::write(std::string_view bytes)
{
    if (failed_)
        return;
    while (!bytes.empty()) {
        const ssize_t written = ::write(fd_, bytes.data(), bytes.size());
        if (written < 0) {
            if (errno == EINTR)
                continue;
            fail("failed writing", errno);
            return;
        }
        bytes.remove_prefix(static_cast<std::size_t>(written));
    }
}

bool
OutputFile::close()
{
    if (fd_ >= 0) {
        const int fd = std::exchange(fd_, -1);
        // Not retried on EINTR: Linux releases the descriptor either
        // way, and a retry could close one another thread just opened.
        if (::close(fd) != 0 && !failed_)
            fail("failed writing", errno);
    }
    return !failed_;
}

} // namespace act::util
