#include "cache/geometry.hh"

#include <sstream>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace ccm
{

Status
CacheGeometry::validate(std::size_t size_bytes,
                        unsigned associativity, unsigned line_bytes)
{
    if (!isPowerOfTwo(size_bytes)) {
        return Status::badConfig(
            "cache size must be a power of two: ", size_bytes);
    }
    if (!isPowerOfTwo(line_bytes)) {
        return Status::badConfig(
            "line size must be a power of two: ", line_bytes);
    }
    if (associativity == 0)
        return Status::badConfig("associativity must be >= 1");
    if (size_bytes % (static_cast<std::size_t>(line_bytes) *
                      associativity) != 0) {
        return Status::badConfig("cache size ", size_bytes,
                                 " not divisible by line*assoc");
    }
    std::size_t sets = size_bytes / line_bytes / associativity;
    if (!isPowerOfTwo(sets)) {
        return Status::badConfig(
            "number of sets must be a power of two: ", sets);
    }
    return Status::ok();
}

Expected<CacheGeometry>
CacheGeometry::make(std::size_t size_bytes, unsigned associativity,
                    unsigned line_bytes)
{
    Status s = validate(size_bytes, associativity, line_bytes);
    if (!s.isOk())
        return s;
    return CacheGeometry(size_bytes, associativity, line_bytes);
}

CacheGeometry::CacheGeometry(std::size_t size_bytes,
                             unsigned associativity,
                             unsigned line_bytes)
    : size_(size_bytes), assoc_(associativity), line_(line_bytes)
{
    fatalIfError(validate(size_bytes, associativity, line_bytes));

    sets_ = size_bytes / line_bytes / associativity;
    offBits = floorLog2(line_bytes);
    idxBits = floorLog2(sets_);
    idxMask = lowMask(idxBits);
}

std::string
CacheGeometry::describe() const
{
    std::ostringstream os;
    if (size_ >= 1024 && size_ % 1024 == 0)
        os << (size_ / 1024) << "KB";
    else
        os << size_ << "B";
    os << "/" << assoc_ << "way/" << line_ << "B";
    return os.str();
}

} // namespace ccm
