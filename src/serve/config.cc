#include "serve/config.hh"

#include <fstream>
#include <sstream>

#include "common/cli.hh"

namespace ccm::serve
{

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
        const std::string what = "key '" + key + "'";
        MemSysConfig &mem = cfg.system.mem;
        StreamLimits &lim = cfg.limits;
        Status s;
        if (key == "l1-kb" || key == "l2-kb") {
            std::size_t kb = 0;
            s = parseNumber(what, value, kb, kMaxKb);
            (key == "l1-kb" ? mem.l1Bytes : mem.l2Bytes) = kb * 1024;
        } else if (key == "l1-assoc") {
            s = parseNumber(what, value, mem.l1Assoc);
        } else if (key == "buf-entries") {
            s = parseNumber(what, value, mem.bufEntries);
        } else if (key == "mct-bits") {
            s = parseNumber(what, value, mem.mctTagBits);
        } else if (key == "queue-records") {
            s = parseNumber(what, value, lim.queueRecords);
        } else if (key == "window-every") {
            s = parseNumber(what, value, lim.windowEvery);
        } else if (key == "window-samples") {
            s = parseNumber(what, value, lim.windowSamples);
        } else if (key == "snapshot-every") {
            s = parseNumber(what, value, lim.snapshotEvery);
        } else if (key == "defect-budget") {
            s = parseNumber(what, value, lim.defectBudget);
        } else {
            return Status::badConfig("unknown config key '", key, "'");
        }
        if (!s.isOk())
            return s;
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
