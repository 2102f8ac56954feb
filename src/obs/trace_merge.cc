#include "obs/trace_merge.h"

#include <algorithm>
#include <cstdint>

#include "util/logging.h"

namespace act::obs {

using config::JsonArray;
using config::JsonObject;
using config::JsonValue;

namespace {

/** The wall-clock position (µs since Unix epoch) of a trace file's
 *  timestamp origin, read from its trace_epoch metadata event; 0 when
 *  the file predates epoch stamping. */
std::uint64_t
traceEpochOf(const JsonValue &trace, const std::string &name)
{
    for (const JsonValue &event : trace.at("traceEvents").asArray()) {
        if (!event.isObject())
            continue;
        if (event.stringOr("name", "") != "trace_epoch")
            continue;
        if (!event.contains("args"))
            continue;
        const double epoch =
            event.at("args").numberOr("wall_epoch_us", 0.0);
        // 2^64 is exact as a double; the cast outside [0, 2^64) is
        // undefined.
        if (!(epoch >= 0.0 && epoch < 18446744073709551616.0))
            throw config::JsonTypeError(
                "trace_epoch wall_epoch_us is out of range");
        return static_cast<std::uint64_t>(epoch);
    }
    util::warn("trace '", name,
               "' has no trace_epoch metadata; aligning its start "
               "with the earliest trace");
    return 0;
}

std::string
basenameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** Run @p step on input @p name; a JSON type error inside it (a
 *  field of the wrong type) becomes a fatal that names the input. */
template <typename Step>
auto
forInput(const std::string &name, Step &&step)
{
    try {
        return step();
    } catch (const config::JsonTypeError &error) {
        util::fatal(name, ": ", error.what());
    }
}

JsonValue
metadataEvent(const std::string &name, int pid, JsonObject args)
{
    JsonObject event;
    event["name"] = JsonValue(name);
    event["cat"] = JsonValue("__metadata");
    event["ph"] = JsonValue("M");
    event["pid"] = JsonValue(pid);
    event["tid"] = JsonValue(0);
    event["ts"] = JsonValue(0);
    event["args"] = JsonValue(std::move(args));
    return JsonValue(std::move(event));
}

} // namespace

JsonValue
mergeTraceDocs(const std::vector<JsonValue> &traces,
               const std::vector<std::string> &names)
{
    if (traces.size() != names.size())
        util::panic("mergeTraceDocs: ", traces.size(), " traces but ",
                    names.size(), " names");

    std::vector<std::uint64_t> epochs;
    epochs.reserve(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
        if (!traces[i].isObject() ||
            !traces[i].contains("traceEvents") ||
            !traces[i].at("traceEvents").isArray()) {
            util::fatal("'", names[i],
                        "' is not a Chrome trace document "
                        "(no traceEvents array)");
        }
        epochs.push_back(forInput(
            names[i], [&] { return traceEpochOf(traces[i], names[i]); }));
    }
    const std::uint64_t min_epoch =
        epochs.empty()
            ? 0
            : *std::min_element(epochs.begin(), epochs.end());

    JsonArray merged;
    JsonObject epoch_args;
    epoch_args["wall_epoch_us"] =
        JsonValue(static_cast<double>(min_epoch));
    merged.push_back(
        metadataEvent("trace_epoch", 1, std::move(epoch_args)));

    for (std::size_t i = 0; i < traces.size(); ++i) {
        const int pid = static_cast<int>(i) + 1;
        JsonObject name_args;
        name_args["name"] = JsonValue(basenameOf(names[i]));
        merged.push_back(
            metadataEvent("process_name", pid, std::move(name_args)));

        // Epochs are close together in practice (shards of one run),
        // so the µs delta stays well inside double precision.
        const double delta_us =
            static_cast<double>(epochs[i] - min_epoch);
        forInput(names[i], [&] {
            for (const JsonValue &event :
                 traces[i].at("traceEvents").asArray()) {
                if (!event.isObject())
                    continue;
                // Per-file epoch anchors are consumed by the
                // alignment; the merged file carries a single fresh
                // one.
                if (event.stringOr("name", "") == "trace_epoch")
                    continue;
                JsonObject remapped = event.asObject();
                remapped["pid"] = JsonValue(pid);
                remapped["ts"] = JsonValue(
                    event.numberOr("ts", 0.0) + delta_us);
                merged.push_back(JsonValue(std::move(remapped)));
            }
        });
    }

    JsonObject doc;
    doc["displayTimeUnit"] = JsonValue("ns");
    doc["traceEvents"] = JsonValue(std::move(merged));
    return JsonValue(std::move(doc));
}

void
mergeTraceFiles(const std::string &out_path,
                const std::vector<std::string> &trace_paths)
{
    std::vector<JsonValue> traces;
    std::vector<std::string> names;
    traces.reserve(trace_paths.size());
    for (const std::string &path : trace_paths) {
        traces.push_back(config::loadJsonFile(path));
        names.push_back(path);
    }
    config::saveJsonFile(out_path, mergeTraceDocs(traces, names));
}

} // namespace act::obs
