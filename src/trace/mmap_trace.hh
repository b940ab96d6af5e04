/**
 * @file
 * openTraceMappedOrFile: a trace file opened as a plain TraceSource.
 *
 * TraceFileReader (trace/file_trace.hh) is the one trace reader, and
 * it already maps the file; this is only its TraceSource upcast under
 * its historical name.  Call TraceFileReader::open instead: only
 * perfbench/perfbench_layers.cc still uses this name.
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
    return TraceFileReader::open(path, opts);
}

} // namespace ccm

#endif // CCM_TRACE_MMAP_TRACE_HH
