#include "url.hpp"

#include <cctype>
#include <vector>

namespace press::http {

namespace {

int
hexValue(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

std::optional<std::string>
percentDecode(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (c == '%') {
            if (i + 2 >= text.size())
                return std::nullopt;
            int hi = hexValue(text[i + 1]);
            int lo = hexValue(text[i + 2]);
            if (hi < 0 || lo < 0)
                return std::nullopt;
            out.push_back(static_cast<char>(hi * 16 + lo));
            i += 2;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::optional<std::string>
normalizePath(std::string_view path)
{
    std::vector<std::string_view> stack;
    std::size_t i = 0;
    while (i < path.size()) {
        while (i < path.size() && path[i] == '/')
            ++i;
        std::size_t start = i;
        while (i < path.size() && path[i] != '/')
            ++i;
        std::string_view seg = path.substr(start, i - start);
        if (seg.empty() || seg == ".")
            continue;
        if (seg == "..") {
            if (stack.empty())
                return std::nullopt; // escapes the document root
            stack.pop_back();
        } else {
            stack.push_back(seg);
        }
    }
    std::string out = "/";
    for (std::size_t s = 0; s < stack.size(); ++s) {
        out.append(stack[s]);
        if (s + 1 < stack.size())
            out.push_back('/');
    }
    return out;
}

std::optional<SplitTarget>
splitTarget(std::string_view target)
{
    if (target.empty() || target[0] != '/')
        return std::nullopt;
    SplitTarget out;
    auto qpos = target.find('?');
    std::string_view raw_path = target.substr(0, qpos);
    if (qpos != std::string_view::npos)
        out.query = std::string(target.substr(qpos + 1));

    auto decoded = percentDecode(raw_path);
    if (!decoded)
        return std::nullopt;
    auto normalized = normalizePath(*decoded);
    if (!normalized)
        return std::nullopt;
    out.path = std::move(*normalized);
    return out;
}

} // namespace press::http
