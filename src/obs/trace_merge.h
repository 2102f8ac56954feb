/**
 * @file
 * Cross-process trace assembly: merge the Chrome-trace JSON files a
 * sharded sweep's processes wrote (via ACT_TRACE) into one
 * Perfetto-loadable timeline.
 *
 * Each input file's timestamps are steady-clock offsets from that
 * process's trace epoch; the `trace_epoch` metadata event (see
 * util/trace.cc) records where the epoch sits on the wall clock. The
 * merger aligns files by shifting every timestamp by the file's epoch
 * delta against the earliest epoch, remaps each file onto its own pid
 * (input order, 1-based) so thread ids never collide across processes,
 * and labels each pid with a `process_name` metadata event carrying
 * the source file's basename.
 */

#ifndef ACT_OBS_TRACE_MERGE_H
#define ACT_OBS_TRACE_MERGE_H

#include <string>
#include <vector>

#include "config/json.h"

namespace act::obs {

/**
 * Merge parsed trace documents into one. @p names labels each pid
 * (parallel to @p traces; typically source basenames). A document
 * missing its `trace_epoch` metadata warns and is aligned with delta
 * zero. Fatal when a document is not a Chrome trace object, and when
 * a field has the wrong type or range ("<name>: <what>").
 */
config::JsonValue
mergeTraceDocs(const std::vector<config::JsonValue> &traces,
               const std::vector<std::string> &names);

/** Load @p trace_paths, merge, and write the result to @p out_path. */
void mergeTraceFiles(const std::string &out_path,
                     const std::vector<std::string> &trace_paths);

} // namespace act::obs

#endif // ACT_OBS_TRACE_MERGE_H
