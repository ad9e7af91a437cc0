#include "trace/json_parse.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>

#include "base/logging.hh"

namespace pipestitch::trace {

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    const JsonValue *hit = nullptr;
    for (const auto &[k, v] : members) {
        if (k == key)
            hit = &v;
    }
    return hit;
}

std::string
JsonValue::asString(const std::string &def) const
{
    return kind == Kind::String ? str : def;
}

int64_t
JsonValue::asInt(int64_t def) const
{
    return kind == Kind::Number ? static_cast<int64_t>(number) : def;
}

double
JsonValue::asDouble(double def) const
{
    return kind == Kind::Number ? number : def;
}

bool
JsonValue::asBool(bool def) const
{
    return kind == Kind::Bool ? boolean : def;
}

namespace {

/**
 * What strtod gives for a numeral std::from_chars found out of a
 * double's range: ±HUGE_VAL when it overflows, ±0 when it
 * underflows. The numeral is 0.d... × 10^(lead + exponent), where
 * `lead` counts the integer digits from the first significant one
 * (or, negated, the fraction's zeros before it); out of range, that
 * power is far above or far below 0.
 */
double
outOfRangeValue(const char *first, const char *last)
{
    const bool negative = *first == '-';
    const char *p = first + (negative ? 1 : 0);
    int64_t lead = 0;
    bool significant = false, fraction = false;
    for (; p != last && *p != 'e' && *p != 'E'; p++) {
        if (*p == '.') {
            fraction = true;
        } else if (significant || *p != '0') {
            significant = true;
            lead += fraction ? 0 : 1;
        } else if (fraction) {
            lead--;
        }
    }
    int64_t exponent = 0;
    if (p != last) {
        p++;
        const bool expNegative = *p == '-';
        if (*p == '+' || *p == '-')
            p++;
        // Too many digits for int64: the sign alone decides.
        if (std::from_chars(p, last, exponent).ec != std::errc{})
            exponent = std::numeric_limits<int64_t>::max() / 2;
        if (expNegative)
            exponent = -exponent;
    }
    const double magnitude = lead + exponent > 0 ? HUGE_VAL : 0.0;
    return negative ? -magnitude : magnitude;
}

struct Parser
{
    const std::string &text;
    size_t pos = 0;
    std::string error;

    explicit Parser(const std::string &t) : text(t) {}

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = csprintf("%s at offset %zu", msg.c_str(), pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            pos++;
        }
    }

    bool
    consume(char c)
    {
        if (pos >= text.size() || text[pos] != c)
            return fail(csprintf("expected '%c'", c));
        pos++;
        return true;
    }

    bool
    literal(const char *word, size_t len)
    {
        if (text.compare(pos, len, word) != 0)
            return fail("bad literal");
        pos += len;
        return true;
    }

    /** Append code point @p cp to @p out as UTF-8. */
    static void
    appendUtf8(std::string &out, uint32_t cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(
                static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(
                static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(
                static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool
    hex4(uint32_t &out)
    {
        if (pos + 4 > text.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; i++) {
            char c = text[pos++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<uint32_t>(c - 'A' + 10);
            else
                return fail("bad \\u escape");
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos < text.size()) {
            char c = text[pos];
            if (c == '"') {
                pos++;
                return true;
            }
            if (c == '\\') {
                pos++;
                if (pos >= text.size())
                    return fail("truncated escape");
                char e = text[pos++];
                switch (e) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'b': out.push_back('\b'); break;
                  case 'f': out.push_back('\f'); break;
                  case 'n': out.push_back('\n'); break;
                  case 'r': out.push_back('\r'); break;
                  case 't': out.push_back('\t'); break;
                  case 'u': {
                      uint32_t cp = 0;
                      if (!hex4(cp))
                          return false;
                      // Surrogate pair -> one code point.
                      if (cp >= 0xD800 && cp <= 0xDBFF &&
                          text.compare(pos, 2, "\\u") == 0) {
                          size_t save = pos;
                          pos += 2;
                          uint32_t lo = 0;
                          if (!hex4(lo))
                              return false;
                          if (lo >= 0xDC00 && lo <= 0xDFFF) {
                              cp = 0x10000 +
                                   ((cp - 0xD800) << 10) +
                                   (lo - 0xDC00);
                          } else {
                              pos = save; // lone high surrogate
                          }
                      }
                      appendUtf8(out, cp);
                      break;
                  }
                  default:
                      pos--;
                      return fail("bad escape");
                }
            } else {
                out.push_back(c);
                pos++;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            pos++;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-')) {
            pos++;
        }
        if (pos == start)
            return fail("expected number");
        // Read the scanned range in place. from_chars ignores the
        // locale; it takes what strtod took except a leading '+'.
        const char *first = text.data() + start;
        const char *last = text.data() + pos;
        if (*first == '+' && last - first > 1 && first[1] != '-')
            first++;
        double value = 0;
        auto [end, ec] = std::from_chars(first, last, value);
        if (end != last ||
            (ec != std::errc{} && ec != std::errc::result_out_of_range)) {
            pos = start;
            return fail("bad number");
        }
        out.kind = JsonValue::Kind::Number;
        out.number =
            ec == std::errc{} ? value : outOfRangeValue(first, last);
        return true;
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > 64)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        switch (c) {
          case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null", 4);
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true", 4);
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false", 5);
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.str);
          case '[': {
            pos++;
            out.kind = JsonValue::Kind::Array;
            skipWs();
            if (pos < text.size() && text[pos] == ']') {
                pos++;
                return true;
            }
            for (;;) {
                out.elems.emplace_back();
                if (!parseValue(out.elems.back(), depth + 1))
                    return false;
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    pos++;
                    continue;
                }
                return consume(']');
            }
          }
          case '{': {
            pos++;
            out.kind = JsonValue::Kind::Object;
            skipWs();
            if (pos < text.size() && text[pos] == '}') {
                pos++;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (!consume(':'))
                    return false;
                out.members.emplace_back(std::move(key),
                                         JsonValue{});
                if (!parseValue(out.members.back().second,
                                depth + 1)) {
                    return false;
                }
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    pos++;
                    continue;
                }
                return consume('}');
            }
          }
          default:
            return parseNumber(out);
        }
    }
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out,
          std::string *error)
{
    Parser p(text);
    out = JsonValue{};
    bool ok = p.parseValue(out, 0);
    if (ok) {
        p.skipWs();
        if (p.pos != text.size())
            ok = p.fail("trailing characters");
    }
    if (!ok) {
        out = JsonValue{};
        if (error)
            *error = p.error;
    }
    return ok;
}

} // namespace pipestitch::trace
