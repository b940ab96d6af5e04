/**
 * @file
 * openTraceMappedOrFile: a trace file opened as a plain TraceSource.
 *
 * TraceFileReader (trace/file_trace.hh) is the one trace reader, and
 * it already maps the file; this is only its TraceSource upcast, kept
 * under its historical name for callers that hold a TraceSource.
 */

#ifndef CCM_TRACE_MMAP_TRACE_HH
#define CCM_TRACE_MMAP_TRACE_HH

#include <memory>
#include <string>

#include "common/status.hh"
#include "trace/file_trace.hh"
#include "trace/source.hh"

namespace ccm
{

/** TraceFileReader::open(@p path, @p opts) as a TraceSource. */
inline Expected<std::unique_ptr<TraceSource>>
openTraceMappedOrFile(const std::string &path,
                      const TraceReadOptions &opts = {})
{
    auto rd = TraceFileReader::open(path, opts);
    if (!rd.ok())
        return rd.status();
    return std::unique_ptr<TraceSource>(rd.take().release());
}

} // namespace ccm

#endif // CCM_TRACE_MMAP_TRACE_HH
