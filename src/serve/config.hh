/**
 * @file
 * Daemon runtime configuration: the architecture + geometry a stream
 * is simulated on and the per-stream resource limits, parsed from a
 * small "key value" config file.
 *
 * One parser serves both moments a configuration enters the daemon —
 * process start (`ccm-serve --config FILE`) and SIGHUP reload — so a
 * file that was valid at boot stays valid at reload, and a file that
 * is not comes back as a Status (the daemon keeps the old
 * configuration rather than dying mid-flight).
 *
 * Grammar: one `key value` pair per line; blank lines and `#`
 * comments ignored.  Keys mirror the ccm-sim flags they correspond
 * to (docs/SERVING.md lists them all):
 *
 *   arch baseline|victim|prefetch|exclude|pseudo|pseudo-lru|twoway|amb
 *   l1-kb N   l1-assoc N   l2-kb N   buf-entries N   mct-bits N
 *   queue-records N   policy block|shed
 *   window-every N    window-samples N   snapshot-every N
 *   defect-budget N
 */

#ifndef CCM_SERVE_CONFIG_HH
#define CCM_SERVE_CONFIG_HH

#include <string>
#include <string_view>

#include "serve/stream.hh"
#include "sim/experiment.hh"

namespace ccm::serve
{

/** Everything a reload swaps: machine config + stream limits. */
struct ServeRuntimeConfig
{
    std::string arch = "baseline";
    SystemConfig system = baselineConfig();
    StreamLimits limits;
};

/** Parse config-file @p text (see the grammar above). */
Expected<ServeRuntimeConfig> parseServeConfig(std::string_view text);

/** parseServeConfig over the contents of @p path. */
Expected<ServeRuntimeConfig> loadServeConfig(const std::string &path);

} // namespace ccm::serve

#endif // CCM_SERVE_CONFIG_HH
