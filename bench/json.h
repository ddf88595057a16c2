/**
 * @file
 * The one JSON writer of the bench drivers: objects, arrays, strings,
 * integers, booleans and fixed-precision doubles. Containers print one
 * member per line, indented two spaces a level; a container opened
 * with `oneLine` (and everything inside it) prints on a single line,
 * the way the BENCH_*.json records keep one table row per line.
 * Strings are escaped by obs::appendJsonString.
 *
 *   bench::Json json;
 *   json.beginObject().field("bench", "identity").field("ok", true);
 *   json.key("cells").beginArray();
 *   json.beginObject(true).field("shards", 2).field("seconds", 1.5, 3)
 *       .endObject();
 *   json.endArray().endObject();
 *   bench::writeJson(options.outPath, json); // stdout when empty
 */
#ifndef NNSMITH_BENCH_JSON_H
#define NNSMITH_BENCH_JSON_H

#include <concepts>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace nnsmith::bench {

class Json {
  public:
    Json& beginObject(bool one_line = false) { return open('{', one_line); }
    Json& endObject() { return close(); }
    Json& beginArray(bool one_line = false) { return open('[', one_line); }
    Json& endArray() { return close(); }

    /** The next value is the member @p name of the open object. */
    Json& key(const std::string& name)
    {
        separate();
        obs::appendJsonString(text_, name);
        text_ += ": ";
        afterKey_ = true;
        return *this;
    }

    Json& value(const std::string& text)
    {
        separate();
        obs::appendJsonString(text_, text);
        return *this;
    }
    Json& value(const char* text) { return value(std::string(text)); }
    Json& value(bool flag)
    {
        separate();
        text_ += flag ? "true" : "false";
        return *this;
    }
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    Json& value(T number)
    {
        separate();
        text_ += std::to_string(number);
        return *this;
    }
    /** A double needs its precision: without this, one would convert
     *  to bool and print as true. */
    Json& value(double) = delete;
    /** @p number printed with exactly @p digits decimals ("%.*f"). */
    Json& value(double number, int digits)
    {
        separate();
        char buffer[64];
        std::snprintf(buffer, sizeof buffer, "%.*f", digits, number);
        text_ += buffer;
        return *this;
    }

    template <typename T>
    Json& field(const std::string& name, const T& v)
    {
        return key(name).value(v);
    }
    Json& field(const std::string& name, double number, int digits)
    {
        return key(name).value(number, digits);
    }

    /** The document, newline-terminated. */
    std::string str() const { return text_ + "\n"; }

  private:
    struct Frame {
        char closer;
        bool oneLine;
        size_t members = 0;
    };

    /** Comma and line break (or space) before the next member. */
    void separate()
    {
        if (afterKey_) {
            afterKey_ = false;
            return;
        }
        if (frames_.empty())
            return;
        Frame& frame = frames_.back();
        if (frame.members++ > 0)
            text_ += frame.oneLine ? ", " : ",";
        if (!frame.oneLine)
            newline(frames_.size());
    }

    Json& open(char opener, bool one_line)
    {
        separate();
        text_ += opener;
        const bool in_one_line = !frames_.empty() && frames_.back().oneLine;
        frames_.push_back(
            {opener == '{' ? '}' : ']', one_line || in_one_line});
        return *this;
    }

    Json& close()
    {
        const Frame frame = frames_.back();
        frames_.pop_back();
        if (!frame.oneLine && frame.members > 0)
            newline(frames_.size());
        text_ += frame.closer;
        return *this;
    }

    void newline(size_t depth)
    {
        text_ += '\n';
        text_.append(2 * depth, ' ');
    }

    std::string text_;
    std::vector<Frame> frames_;
    bool afterKey_ = false;
};

/** Write @p json to @p path, or to stdout when @p path is empty.
 *  Returns false (after a one-line error) when the file cannot be
 *  opened. */
inline bool
writeJson(const std::string& path, const Json& json)
{
    const std::string text = json.str();
    if (path.empty()) {
        std::fputs(text.c_str(), stdout);
        return true;
    }
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    std::fputs(text.c_str(), out);
    std::fclose(out);
    return true;
}

} // namespace nnsmith::bench

#endif // NNSMITH_BENCH_JSON_H
