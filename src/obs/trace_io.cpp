#include "trace_io.hpp"

#include <istream>
#include <ostream>

namespace press::obs {

namespace {

// Integers are written byte-by-byte little-endian so the format does not
// depend on host byte order or struct layout.

void
putU8(std::ostream &os, std::uint8_t v)
{
    os.put(static_cast<char>(v));
}

void
putU16(std::ostream &os, std::uint16_t v)
{
    for (int i = 0; i < 2; ++i)
        putU8(os, static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU32(std::ostream &os, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        putU8(os, static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::ostream &os, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        putU8(os, static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putI64(std::ostream &os, std::int64_t v)
{
    putU64(os, static_cast<std::uint64_t>(v));
}

void
putString(std::ostream &os, const std::string &s)
{
    putU32(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

class Reader
{
  public:
    explicit Reader(std::istream &is) : _is(is) {}

    bool ok() const { return _ok; }

    std::uint8_t
    u8()
    {
        int c = _is.get();
        if (c == std::istream::traits_type::eof()) {
            _ok = false;
            return 0;
        }
        return static_cast<std::uint8_t>(c);
    }

    std::uint16_t
    u16()
    {
        std::uint16_t v = 0;
        for (int i = 0; i < 2; ++i)
            v |= static_cast<std::uint16_t>(u8()) << (8 * i);
        return v;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(u8()) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(u8()) << (8 * i);
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    std::string
    string(std::uint32_t max_len = 1u << 20)
    {
        std::uint32_t len = u32();
        if (!_ok || len > max_len) {
            _ok = false;
            return {};
        }
        std::string s(len, '\0');
        _is.read(s.data(), static_cast<std::streamsize>(len));
        if (_is.gcount() != static_cast<std::streamsize>(len))
            _ok = false;
        return s;
    }

  private:
    std::istream &_is;
    bool _ok = true;
};

void
putEvent(std::ostream &os, const TraceEvent &e)
{
    putI64(os, e.tick);
    putU64(os, e.arg);
    putU32(os, e.req);
    putU16(os, static_cast<std::uint16_t>(e.code));
    putU8(os, static_cast<std::uint8_t>(e.phase));
    putU8(os, e.node);
}

bool
fail(std::string *error, const char *why)
{
    if (error)
        *error = why;
    return false;
}

} // namespace

void
writeTrace(std::ostream &os, const TraceData &data)
{
    putU32(os, kTraceMagic);
    putU32(os, kTraceVersion);
    putU32(os, data.nodes);
    putU32(os, static_cast<std::uint32_t>(data.categories.size()));
    for (const auto &name : data.categories)
        putString(os, name);
    for (std::uint32_t n = 0; n < data.nodes; ++n) {
        putU64(os, data.emitted[n]);
        putU64(os, data.events[n].size());
        for (const TraceEvent &e : data.events[n])
            putEvent(os, e);
    }
    for (std::uint32_t n = 0; n < data.nodes; ++n)
        for (std::int64_t busy : data.spanBusy[n])
            putI64(os, busy);
    for (std::uint32_t n = 0; n < data.nodes; ++n)
        for (std::int64_t busy : data.counterBusy[n])
            putI64(os, busy);
    putU32(os, static_cast<std::uint32_t>(data.metrics.size()));
    for (const MetricSample &m : data.metrics) {
        putString(os, m.name);
        putU32(os, static_cast<std::uint32_t>(m.node));
        putU64(os, m.value);
    }
}

bool
readTrace(std::istream &is, TraceData &data, std::string *error)
{
    Reader r(is);
    if (r.u32() != kTraceMagic)
        return fail(error, "not a .ptrace file (bad magic)");
    std::uint32_t version = r.u32();
    if (version != kTraceVersion)
        return fail(error, "unsupported .ptrace version");
    data = TraceData{};
    data.nodes = r.u32();
    std::uint32_t ncats = r.u32();
    if (!r.ok() || data.nodes == 0 || data.nodes > 255 || ncats > 256)
        return fail(error, "corrupt .ptrace header");
    // Every loop stops at the first failed read, and nothing is
    // reserved from a count the file claims: a short file must fail
    // fast, not allocate what its header promises.
    for (std::uint32_t c = 0; c < ncats && r.ok(); ++c)
        data.categories.push_back(r.string(4096));
    for (std::uint32_t n = 0; n < data.nodes; ++n) {
        data.emitted.push_back(r.u64());
        std::uint64_t count = r.u64();
        if (!r.ok() || count > (1u << 28))
            return fail(error, "corrupt .ptrace node header");
        std::vector<TraceEvent> events;
        for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
            TraceEvent e;
            e.tick = r.i64();
            e.arg = r.u64();
            e.req = r.u32();
            e.code = static_cast<Ev>(r.u16());
            e.phase = static_cast<Phase>(r.u8());
            e.node = r.u8();
            events.push_back(e);
        }
        if (!r.ok())
            return fail(error, "truncated .ptrace file");
        data.events.push_back(std::move(events));
    }
    for (std::uint32_t n = 0; n < data.nodes; ++n) {
        std::vector<std::int64_t> row;
        for (std::uint32_t c = 0; c < ncats; ++c)
            row.push_back(r.i64());
        data.spanBusy.push_back(std::move(row));
    }
    for (std::uint32_t n = 0; n < data.nodes; ++n) {
        std::vector<std::int64_t> row;
        for (std::uint32_t c = 0; c < ncats; ++c)
            row.push_back(r.i64());
        data.counterBusy.push_back(std::move(row));
    }
    std::uint32_t nmetrics = r.u32();
    if (!r.ok() || nmetrics > (1u << 24))
        return fail(error, "corrupt .ptrace metrics header");
    for (std::uint32_t i = 0; i < nmetrics && r.ok(); ++i) {
        MetricSample m;
        m.name = r.string(4096);
        m.node = static_cast<int>(r.u32());
        m.value = r.u64();
        data.metrics.push_back(std::move(m));
    }
    if (!r.ok())
        return fail(error, "truncated .ptrace file");
    return true;
}

} // namespace press::obs
