#include "table.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

namespace press::util {

namespace {

bool
looksNumeric(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
              c == '-' || c == '+' || c == ',' || c == '%' || c == 'e' ||
              c == 'E' || c == 'x'))
            return false;
    }
    return true;
}

} // namespace

void
TextTable::header(std::vector<std::string> cells)
{
    _header = std::move(cells);
}

void
TextTable::row(std::vector<std::string> cells)
{
    _rows.push_back(std::move(cells));
}

void
TextTable::separator()
{
    _rows.push_back({std::string("\x01")});
}

std::string
TextTable::render() const
{
    std::size_t ncols = _header.size();
    for (const auto &r : _rows)
        if (!(r.size() == 1 && r[0] == "\x01"))
            ncols = std::max(ncols, r.size());

    std::vector<std::size_t> width(ncols, 0);
    auto measure = [&](const std::vector<std::string> &r) {
        for (std::size_t i = 0; i < r.size(); ++i)
            width[i] = std::max(width[i], r[i].size());
    };
    measure(_header);
    for (const auto &r : _rows)
        if (!(r.size() == 1 && r[0] == "\x01"))
            measure(r);

    std::size_t total = 0;
    for (std::size_t w : width)
        total += w + 2;

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &r) {
        for (std::size_t i = 0; i < ncols; ++i) {
            std::string cell = i < r.size() ? r[i] : "";
            bool right = looksNumeric(cell);
            std::size_t pad = width[i] - cell.size();
            if (right)
                os << std::string(pad, ' ') << cell;
            else
                os << cell << std::string(pad, ' ');
            os << (i + 1 < ncols ? "  " : "");
        }
        os << '\n';
    };

    if (!_header.empty()) {
        emit(_header);
        os << std::string(total, '-') << '\n';
    }
    for (const auto &r : _rows) {
        if (r.size() == 1 && r[0] == "\x01")
            os << std::string(total, '-') << '\n';
        else
            emit(r);
    }
    return os.str();
}

std::string
TextTable::renderCsv() const
{
    auto quote = [](const std::string &cell) {
        if (cell.find_first_of(",\"\n") == std::string::npos)
            return cell;
        std::string out = "\"";
        for (char c : cell) {
            if (c == '"')
                out += "\"\"";
            else
                out.push_back(c);
        }
        out += "\"";
        return out;
    };
    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &r) {
        for (std::size_t i = 0; i < r.size(); ++i) {
            os << quote(r[i]);
            if (i + 1 < r.size())
                os << ',';
        }
        os << '\n';
    };
    if (!_header.empty())
        emit(_header);
    for (const auto &r : _rows)
        if (!(r.size() == 1 && r[0] == "\x01"))
            emit(r);
    return os.str();
}

std::string
fmtF(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
fmtPct(double fraction, int digits)
{
    return fmtF(fraction * 100.0, digits) + "%";
}

std::string
fmtSignedPct(double fraction, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.*f%%", digits, fraction * 100.0);
    return buf;
}

std::string
fmtInt(long long v)
{
    bool neg = v < 0;
    unsigned long long u = neg ? -static_cast<unsigned long long>(v) : v;
    std::string digits = std::to_string(u);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count && count % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++count;
    }
    if (neg)
        out.push_back('-');
    std::reverse(out.begin(), out.end());
    return out;
}

} // namespace press::util
