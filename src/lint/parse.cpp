#include "lint/parse.hpp"

#include <array>
#include <algorithm>

namespace dynvote::lint {

namespace {

bool is_keyword(std::string_view t) {
  static constexpr std::array<std::string_view, 22> kKeywords = {
      "const",    "constexpr", "static",  "virtual", "override", "final",
      "noexcept", "mutable",   "inline",  "explicit", "using",   "typedef",
      "friend",   "template",  "enum",    "class",    "struct",  "public",
      "protected", "private",  "return",  "auto",
  };
  return std::find(kKeywords.begin(), kKeywords.end(), t) != kKeywords.end();
}

/// Last non-space token of `chunk` (empty when none).
std::string_view last_token(const std::vector<Token>& tokens) {
  return tokens.empty() ? std::string_view{} : tokens.back().text;
}

}  // namespace

std::size_t match_brace(std::string_view code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '{') ++depth;
    if (code[i] == '}') {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string_view::npos;
}

namespace {

/// Record the inline method bodies of one class body span.
/// [body_begin, body_end) excludes the outer braces.
void parse_class_body(const SourceFile& source, std::string_view code,
                      std::size_t body_begin, std::size_t body_end,
                      const ClassDecl& decl, ParsedFile& out) {
  std::string chunk;  // depth-0 text of the current declaration

  auto method_name_of = [&](const std::vector<Token>& tokens) -> std::string {
    for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
      if (tokens[t + 1].text == "(" && tokens[t].is_ident() &&
          !is_keyword(tokens[t].text)) {
        return std::string(tokens[t].text);
      }
      if (tokens[t + 1].text == "(") return {};
    }
    return {};
  };

  std::size_t i = body_begin;
  while (i < body_end) {
    const char c = code[i];
    if (c == ';') {
      chunk.clear();
      ++i;
      continue;
    }
    if (c == '{') {
      const std::size_t close =
          match_brace(std::string_view(code).substr(0, body_end), i);
      if (close == std::string_view::npos) break;  // malformed; stop safely
      const std::vector<Token> tokens = tokenize(chunk);
      const std::string_view last = last_token(tokens);
      const bool is_body = last == ")" || last == "const" ||
                           last == "override" || last == "noexcept" ||
                           last == "final";
      if (is_body) {
        if (std::string name = method_name_of(tokens); !name.empty()) {
          out.inline_bodies[{decl.name, std::move(name)}].push_back(
              MethodBody{std::string(), i + 1, close, source.line_of(i)});
        }
        chunk.clear();
      }
      i = close + 1;
      continue;
    }
    chunk.push_back(c);
    ++i;
  }
}

}  // namespace

ParsedFile parse_file(const SourceFile& source) {
  ParsedFile out;
  out.source = &source;
  const std::string& code = source.code;
  const std::string& text = source.text;

  // --- includes (paths live in the raw text; code has them blanked) ---
  for (std::size_t at = code.find("#include"); at != std::string::npos;
       at = code.find("#include", at + 1)) {
    std::size_t q = at + 8;
    while (q < text.size() && (text[q] == ' ' || text[q] == '\t')) ++q;
    if (q >= text.size() || text[q] != '"') continue;
    const std::size_t end = text.find('"', q + 1);
    if (end == std::string::npos) continue;
    out.includes.push_back(IncludeDirective{
        text.substr(q + 1, end - q - 1), source.line_of(at)});
  }

  const std::vector<Token> tokens = tokenize(code);

  // --- class/struct declarations ---
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    const std::string_view kw = tokens[i].text;
    if (kw != "class" && kw != "struct") continue;
    if (i > 0 && tokens[i - 1].text == "enum") continue;
    if (!tokens[i + 1].is_ident() || is_keyword(tokens[i + 1].text)) continue;

    ClassDecl decl;
    decl.name = std::string(tokens[i + 1].text);

    std::size_t j = i + 2;
    // Qualified definitions (`struct Coordinator::Impl {`) declare the
    // last component; the qualifiers are only a path to it.
    while (j + 1 < tokens.size() && tokens[j].text == "::" &&
           tokens[j + 1].is_ident() && !is_keyword(tokens[j + 1].text)) {
      decl.name = std::string(tokens[j + 1].text);
      j += 2;
    }
    if (j < tokens.size() && tokens[j].text == "final") ++j;
    if (j >= tokens.size()) break;
    if (tokens[j].text == ";" || tokens[j].text == "{") {
      // fall through -- forward declaration or plain body
    } else if (tokens[j].text == ":") {
      // Base clause: skip it to the body.
      while (j < tokens.size() && tokens[j].text != "{" &&
             tokens[j].text != ";") {
        ++j;
      }
    } else {
      continue;  // `class Foo* ptr;` and other non-declarations
    }
    if (j >= tokens.size() || tokens[j].text != ";") {
      if (j >= tokens.size() || tokens[j].text != "{") continue;
      const std::size_t open = tokens[j].offset;
      const std::size_t close = match_brace(code, open);
      if (close == std::string::npos) continue;
      parse_class_body(source, code, open + 1, close, decl, out);
      out.classes.push_back(std::move(decl));
    }
  }

  // --- out-of-line `Class::method(...) ... { body }` definitions ---
  for (std::size_t i = 0; i + 3 < tokens.size(); ++i) {
    if (!tokens[i].is_ident() || is_keyword(tokens[i].text)) continue;
    if (tokens[i + 1].text != "::") continue;
    if (!tokens[i + 2].is_ident()) continue;
    if (tokens[i + 3].text != "(") continue;

    // Walk the parameter list, then decide declaration vs definition.
    std::size_t j = i + 3;
    int parens = 0;
    for (; j < tokens.size(); ++j) {
      if (tokens[j].text == "(") ++parens;
      if (tokens[j].text == ")" && --parens == 0) break;
    }
    if (j >= tokens.size()) continue;
    ++j;
    bool ctor_init = false;
    std::size_t body_open = std::string::npos;
    for (; j < tokens.size(); ++j) {
      const std::string_view t = tokens[j].text;
      if (parens > 0 || t == "(") {
        parens += (t == "(") ? 1 : 0;
        parens -= (t == ")") ? 1 : 0;
        continue;
      }
      if (t == ";") break;  // declaration (or a qualified call statement)
      if (t == "{") {
        // In a constructor initializer list, `member{init}` braces follow an
        // identifier; the body brace follows `)`, `}` or the `:` itself.
        if (ctor_init && j > 0 && tokens[j - 1].is_ident()) {
          const std::size_t close = match_brace(code, tokens[j].offset);
          if (close == std::string::npos) break;
          while (j < tokens.size() && tokens[j].offset <= close) ++j;
          --j;
          continue;
        }
        body_open = tokens[j].offset;
        break;
      }
      if (t == ":") {
        ctor_init = true;
        continue;
      }
      if (t == "const" || t == "noexcept" || t == "override" || ctor_init) {
        continue;
      }
      // Anything else at depth 0 (a comma, an operator, `=`) means this was
      // an expression or declaration, not a definition.
      break;
    }
    if (body_open == std::string::npos) continue;
    const std::size_t close = match_brace(code, body_open);
    if (close == std::string::npos) continue;
    out.out_of_line[{std::string(tokens[i].text),
                     std::string(tokens[i + 2].text)}]
        .push_back(MethodBody{std::string(), body_open + 1, close,
                              source.line_of(body_open)});
  }

  return out;
}

}  // namespace dynvote::lint
