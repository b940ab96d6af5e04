#include "serve/config.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ccm::serve
{

namespace
{

/** Strict unsigned parse: the whole token must be digits. */
Expected<std::uint64_t>
parseU64(const std::string &key, const std::string &value)
{
    if (value.empty())
        return Status::badConfig("key '", key, "' needs a number");
    for (char c : value) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return Status::badConfig("key '", key, "': '", value,
                                     "' is not a number");
    }
    return std::strtoull(value.c_str(), nullptr, 10);
}

} // namespace

Expected<ServeRuntimeConfig>
parseServeConfig(std::string_view text)
{
    ServeRuntimeConfig cfg;

    // Geometry keys are applied after the arch is known, in file
    // order, so "arch" may appear anywhere without being overridden
    // by defaults.
    std::vector<std::pair<std::string, std::string>> pairs;

    std::size_t line_no = 0;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string_view::npos)
            end = text.size();
        std::string line(text.substr(start, end - start));
        start = end + 1;
        ++line_no;

        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ss(line);
        std::string key, value, extra;
        if (!(ss >> key))
            continue; // blank / comment-only line
        if (!(ss >> value) || (ss >> extra))
            return Status::badConfig("config line ", line_no,
                                     ": expected 'key value', got '",
                                     line, "'");
        pairs.emplace_back(std::move(key), std::move(value));
    }

    for (const auto &[key, value] : pairs) {
        if (key == "arch") {
            auto sys = buildArchConfig(value);
            if (!sys.ok())
                return sys.status();
            cfg.arch = value;
            cfg.system = sys.take();
            continue;
        }
        if (key == "policy") {
            auto p = parseOverflowPolicy(value);
            if (!p.ok())
                return p.status();
            cfg.limits.policy = p.value();
            continue;
        }
        auto n = parseU64(key, value);
        if (!n.ok())
            return n.status();
        const std::uint64_t v = n.value();
        if (key == "l1-kb") {
            cfg.system.mem.l1Bytes = v * 1024;
        } else if (key == "l1-assoc") {
            cfg.system.mem.l1Assoc = static_cast<unsigned>(v);
        } else if (key == "l2-kb") {
            cfg.system.mem.l2Bytes = v * 1024;
        } else if (key == "buf-entries") {
            cfg.system.mem.bufEntries = static_cast<unsigned>(v);
        } else if (key == "mct-bits") {
            cfg.system.mem.mctTagBits = static_cast<unsigned>(v);
        } else if (key == "queue-records") {
            cfg.limits.queueRecords = v;
        } else if (key == "window-every") {
            cfg.limits.windowEvery = v;
        } else if (key == "window-samples") {
            cfg.limits.windowSamples = v;
        } else if (key == "snapshot-every") {
            cfg.limits.snapshotEvery = v;
        } else if (key == "defect-budget") {
            cfg.limits.defectBudget = v;
        } else {
            return Status::badConfig("unknown config key '", key, "'");
        }
    }
    // Reject a machine the simulator would die on here, so a broken
    // file never becomes the running configuration: reload() keeps the
    // previous good one instead.
    Status geom = validate(cfg.system.mem);
    if (!geom.isOk())
        return geom.withContext("invalid geometry");
    return cfg;
}

Expected<ServeRuntimeConfig>
loadServeConfig(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::ioError("cannot open config file ", path);
    std::ostringstream ss;
    ss << in.rdbuf();
    auto cfg = parseServeConfig(ss.str());
    if (!cfg.ok())
        return cfg.status().withContext("config file " + path);
    return cfg;
}

} // namespace ccm::serve
