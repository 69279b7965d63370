/**
 * @file
 * Tests for the HTTP layer: parsing, serialization round-trips, URL
 * handling, MIME mapping, and the site map.
 */

#include <gtest/gtest.h>

#include "http/message.hpp"
#include "http/mime.hpp"
#include "http/url.hpp"
#include "storage/file_set.hpp"
#include "workload/site_map.hpp"

using namespace press::http;

TEST(HttpParse, SimpleGet)
{
    auto r = parseRequest("GET /index.html HTTP/1.0\r\n"
                          "Host: example.org\r\n"
                          "\r\n");
    ASSERT_TRUE(r);
    EXPECT_EQ(r.request->method, Method::Get);
    EXPECT_EQ(r.request->target, "/index.html");
    EXPECT_EQ(r.request->version.major, 1);
    EXPECT_EQ(r.request->version.minor, 0);
    ASSERT_TRUE(r.request->header("host"));
    EXPECT_EQ(*r.request->header("HOST"), "example.org");
    EXPECT_FALSE(r.request->keepAlive()); // 1.0 default
}

TEST(HttpParse, KeepAliveSemantics)
{
    auto v11 = parseRequest("GET / HTTP/1.1\r\nHost: h\r\n\r\n");
    ASSERT_TRUE(v11);
    EXPECT_TRUE(v11.request->keepAlive());
    auto closed = parseRequest(
        "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
    ASSERT_TRUE(closed);
    EXPECT_FALSE(closed.request->keepAlive());
    auto ka10 = parseRequest(
        "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
    ASSERT_TRUE(ka10);
    EXPECT_TRUE(ka10.request->keepAlive());
}

TEST(HttpParse, BareLfAccepted)
{
    auto r = parseRequest("GET /a HTTP/1.1\nHost: h\n\n");
    ASSERT_TRUE(r);
    EXPECT_EQ(r.request->target, "/a");
}

TEST(HttpParse, Errors)
{
    EXPECT_EQ(*parseRequest("GARBAGE\r\n\r\n").error,
              ParseError::BadRequestLine);
    EXPECT_EQ(*parseRequest("GET /x HTTQ/9\r\n\r\n").error,
              ParseError::BadVersion);
    EXPECT_EQ(*parseRequest("GET /x HTTP/1.1\r\nNoColon\r\n\r\n").error,
              ParseError::BadHeader);
    EXPECT_EQ(*parseRequest("GET /x HTTP/1.1\r\nHost: h\r\n").error,
              ParseError::IncompleteInput);
    EXPECT_EQ(*parseRequest("").error, ParseError::IncompleteInput);
    // The version token is exactly HTTP/x.y: nothing may trail it.
    // These compare the optional itself, so an accepted parse fails
    // the check instead of dereferencing an empty optional.
    EXPECT_EQ(parseRequest("GET /a.html HTTP/1.1x\r\n\r\n").error,
              ParseError::BadVersion);
    EXPECT_EQ(parseRequest("GET /a.html HTTP/1.12\r\n\r\n").error,
              ParseError::BadVersion);
}

TEST(HttpParse, UnknownMethodSurvives)
{
    auto r = parseRequest("BREW /pot HTTP/1.1\r\n\r\n");
    ASSERT_TRUE(r);
    EXPECT_EQ(r.request->method, Method::Unknown);
}

TEST(HttpRoundTrip, SerializeThenParse)
{
    Request get = makeGet("/docs/a.html", "press.cluster");
    auto parsed = parseRequest(get.serialize());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed.request->target, "/docs/a.html");
    EXPECT_EQ(*parsed.request->header("Host"), "press.cluster");
    EXPECT_TRUE(parsed.request->keepAlive());
}

TEST(HttpResponse, FileResponseShape)
{
    Response r = makeFileResponse(200, 12345, "text/html", true);
    std::string head = r.serializeHead();
    EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(head.find("Content-Length: 12345"), std::string::npos);
    EXPECT_NE(head.find("Content-Type: text/html"), std::string::npos);
    EXPECT_EQ(r.wireBytes(), head.size() + 12345);
}

TEST(HttpResponse, ErrorStatusHasNoBody)
{
    Response r = makeFileResponse(404, 999, "text/html", false);
    EXPECT_EQ(r.contentLength, 0u);
    EXPECT_NE(r.serializeHead().find("404 Not Found"),
              std::string::npos);
}

TEST(Url, PercentDecode)
{
    EXPECT_EQ(*percentDecode("/a%20b"), "/a b");
    EXPECT_EQ(*percentDecode("/%41%42"), "/AB");
    EXPECT_EQ(*percentDecode("plain"), "plain");
    EXPECT_EQ(*percentDecode("a+b"), "a+b"); // '+' is literal in a path
    EXPECT_FALSE(percentDecode("/bad%g1"));
    EXPECT_FALSE(percentDecode("/trunc%4"));
}

TEST(Url, NormalizePath)
{
    EXPECT_EQ(*normalizePath("/a/b/c"), "/a/b/c");
    EXPECT_EQ(*normalizePath("//a///b"), "/a/b");
    EXPECT_EQ(*normalizePath("/a/./b"), "/a/b");
    EXPECT_EQ(*normalizePath("/a/x/../b"), "/a/b");
    EXPECT_EQ(*normalizePath("/"), "/");
    // Traversal out of the root must be rejected.
    EXPECT_FALSE(normalizePath("/../etc/passwd"));
    EXPECT_FALSE(normalizePath("/a/../../b"));
}

TEST(Url, SplitTarget)
{
    auto t = splitTarget("/search/doc.html?q=via&x=1");
    ASSERT_TRUE(t);
    EXPECT_EQ(t->path, "/search/doc.html");
    EXPECT_EQ(t->query, "q=via&x=1");
    EXPECT_FALSE(splitTarget("no-leading-slash"));
    EXPECT_FALSE(splitTarget(""));
    EXPECT_FALSE(splitTarget("/%zz"));
    auto plus = splitTarget("/c++/notes+faq.html");
    ASSERT_TRUE(plus);
    EXPECT_EQ(plus->path, "/c++/notes+faq.html");
}

TEST(Mime, KnownAndUnknown)
{
    EXPECT_EQ(mimeType("/a/b.html"), "text/html");
    EXPECT_EQ(mimeType("/x.GIF"), "image/gif");
    EXPECT_EQ(mimeType("/x.jpeg"), "image/jpeg");
    EXPECT_EQ(mimeType("/noext"), "application/octet-stream");
    EXPECT_EQ(mimeType("/odd.xyz"), "application/octet-stream");
}

TEST(SiteMap, PathsUniqueAndResolvable)
{
    press::storage::FileSet files(
        std::vector<std::uint32_t>(5000, 1000));
    press::workload::SiteMap site(files);
    EXPECT_EQ(site.count(), 5000u);
    for (press::storage::FileId f = 0; f < 5000; f += 97) {
        const std::string &p = site.path(f);
        EXPECT_EQ(p.front(), '/');
        auto back = site.resolve(p);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, f);
    }
    EXPECT_FALSE(site.resolve("/definitely/not/there.html"));
}

TEST(SiteMap, DeterministicForSeed)
{
    press::storage::FileSet files(std::vector<std::uint32_t>(100, 1));
    press::workload::SiteMap a(files, 7), b(files, 7), c(files, 8);
    EXPECT_EQ(a.path(42), b.path(42));
    EXPECT_NE(a.path(42), c.path(42));
}

TEST(SiteMap, PathsSurviveHttpPipeline)
{
    // Every generated path must round-trip through request building,
    // parsing, target splitting and resolution.
    press::storage::FileSet files(
        std::vector<std::uint32_t>(200, 10));
    press::workload::SiteMap site(files);
    for (press::storage::FileId f = 0; f < 200; ++f) {
        Request get = makeGet(site.path(f), "h");
        auto parsed = parseRequest(get.serialize());
        ASSERT_TRUE(parsed);
        auto split = splitTarget(parsed.request->target);
        ASSERT_TRUE(split);
        auto resolved = site.resolve(split->path);
        ASSERT_TRUE(resolved);
        EXPECT_EQ(*resolved, f);
    }
}
