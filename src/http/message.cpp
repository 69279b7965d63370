#include "message.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace press::http {

namespace {

bool
iequals(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return true;
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
        s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                          s.back() == '\r'))
        s.remove_suffix(1);
    return s;
}

/** Split the next line (up to \n) off @p rest; returns the line without
 *  the terminator, or nullopt when no newline remains. */
std::optional<std::string_view>
nextLine(std::string_view &rest)
{
    auto pos = rest.find('\n');
    if (pos == std::string_view::npos)
        return std::nullopt;
    std::string_view line = rest.substr(0, pos);
    if (!line.empty() && line.back() == '\r')
        line.remove_suffix(1);
    rest.remove_prefix(pos + 1);
    return line;
}

} // namespace

const char *
methodName(Method m)
{
    switch (m) {
      case Method::Get:
        return "GET";
      case Method::Head:
        return "HEAD";
      case Method::Unknown:
        break;
    }
    return "UNKNOWN";
}

std::optional<std::string_view>
Request::header(std::string_view name) const
{
    for (const auto &h : headers)
        if (iequals(h.name, name))
            return std::string_view(h.value);
    return std::nullopt;
}

bool
Request::keepAlive() const
{
    auto conn = header("Connection");
    if (conn) {
        if (iequals(*conn, "close"))
            return false;
        if (iequals(*conn, "keep-alive"))
            return true;
    }
    // HTTP/1.1 defaults to persistent connections; 1.0 does not.
    return version.major == 1 && version.minor >= 1;
}

std::string
Request::serialize() const
{
    std::ostringstream os;
    os << methodName(method) << ' ' << target << " HTTP/"
       << version.major << '.' << version.minor << "\r\n";
    for (const auto &h : headers)
        os << h.name << ": " << h.value << "\r\n";
    os << "\r\n";
    return os.str();
}

ParseResult
parseRequest(std::string_view text)
{
    auto fail = [](ParseError e) {
        ParseResult r;
        r.error = e;
        return r;
    };

    std::string_view rest = text;
    auto line = nextLine(rest);
    if (!line)
        return fail(ParseError::IncompleteInput);

    // METHOD SP TARGET SP HTTP/x.y
    auto sp1 = line->find(' ');
    auto sp2 = line->rfind(' ');
    if (sp1 == std::string_view::npos || sp2 == sp1)
        return fail(ParseError::BadRequestLine);

    Request req;
    std::string_view method = line->substr(0, sp1);
    if (iequals(method, "GET"))
        req.method = Method::Get;
    else if (iequals(method, "HEAD"))
        req.method = Method::Head;
    else
        req.method = Method::Unknown;

    req.target = std::string(trim(line->substr(sp1 + 1, sp2 - sp1 - 1)));
    if (req.target.empty())
        return fail(ParseError::BadRequestLine);

    std::string_view ver = line->substr(sp2 + 1);
    if (ver.size() != 8 || !iequals(ver.substr(0, 5), "HTTP/") ||
        ver[6] != '.' || !std::isdigit(static_cast<unsigned char>(ver[5])) ||
        !std::isdigit(static_cast<unsigned char>(ver[7])))
        return fail(ParseError::BadVersion);
    req.version.major = ver[5] - '0';
    req.version.minor = ver[7] - '0';

    // Header fields until the blank line.
    while (true) {
        auto hline = nextLine(rest);
        if (!hline)
            return fail(ParseError::IncompleteInput);
        if (hline->empty())
            break;
        auto colon = hline->find(':');
        if (colon == std::string_view::npos || colon == 0)
            return fail(ParseError::BadHeader);
        Header h;
        h.name = std::string(trim(hline->substr(0, colon)));
        h.value = std::string(trim(hline->substr(colon + 1)));
        req.headers.push_back(std::move(h));
    }

    ParseResult ok;
    ok.request = std::move(req);
    return ok;
}

const char *
Response::reason(int status)
{
    switch (status) {
      case 200:
        return "OK";
      case 204:
        return "No Content";
      case 301:
        return "Moved Permanently";
      case 304:
        return "Not Modified";
      case 400:
        return "Bad Request";
      case 403:
        return "Forbidden";
      case 404:
        return "Not Found";
      case 500:
        return "Internal Server Error";
      case 501:
        return "Not Implemented";
      case 503:
        return "Service Unavailable";
      default:
        return "Unknown";
    }
}

std::string
Response::serializeHead() const
{
    std::ostringstream os;
    os << "HTTP/" << version.major << '.' << version.minor << ' '
       << status << ' ' << reason(status) << "\r\n";
    for (const auto &h : headers)
        os << h.name << ": " << h.value << "\r\n";
    os << "\r\n";
    return os.str();
}

std::uint64_t
Response::wireBytes() const
{
    return serializeHead().size() + contentLength;
}

Response
makeFileResponse(int status, std::uint64_t content_length,
                 std::string_view content_type, bool keep_alive)
{
    Response r;
    r.status = status;
    r.version = Version{1, 1};
    r.contentLength = status == 200 ? content_length : 0;
    r.headers.push_back({"Server", "PRESS/1.0"});
    r.headers.push_back(
        {"Content-Type", std::string(content_type)});
    r.headers.push_back(
        {"Content-Length", std::to_string(r.contentLength)});
    r.headers.push_back(
        {"Connection", keep_alive ? "keep-alive" : "close"});
    return r;
}

Request
makeGet(std::string_view path, std::string_view host, bool keep_alive)
{
    Request r;
    r.method = Method::Get;
    r.target = std::string(path);
    r.version = Version{1, 1};
    r.headers.push_back({"Host", std::string(host)});
    r.headers.push_back({"User-Agent", "press-client/1.0"});
    r.headers.push_back(
        {"Connection", keep_alive ? "keep-alive" : "close"});
    return r;
}

} // namespace press::http
