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

bool chunk_starts_with(const std::string& chunk, std::string_view word) {
  std::size_t i = 0;
  while (i < chunk.size() &&
         std::isspace(static_cast<unsigned char>(chunk[i])) != 0) {
    ++i;
  }
  if (chunk.size() - i < word.size()) return false;
  if (chunk.compare(i, word.size(), word) != 0) return false;
  const std::size_t after = i + word.size();
  return after >= chunk.size() ||
         (std::isalnum(static_cast<unsigned char>(chunk[after])) == 0 &&
          chunk[after] != '_');
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

/// Parse one class body span into fields and inline method bodies.
/// [body_begin, body_end) excludes the outer braces.
void parse_class_body(const SourceFile& source, std::string_view code,
                      std::size_t body_begin, std::size_t body_end,
                      ClassDecl& decl, ParsedFile& out) {
  std::string chunk;                 // depth-0 text of the current declaration
  std::vector<std::size_t> offsets;  // byte offset of each chunk char

  auto reset = [&] {
    chunk.clear();
    offsets.clear();
  };

  auto chunk_tokens = [&] { return tokenize(chunk); };

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

  auto finish_declaration = [&] {
    const std::vector<Token> tokens = chunk_tokens();
    if (tokens.empty()) return reset();
    for (std::string_view skip :
         {"using", "typedef", "friend", "static", "template", "enum", "class",
          "struct", "public", "protected", "private"}) {
      if (chunk_starts_with(chunk, skip)) return reset();
    }
    // Method (or constructor) declaration.
    if (chunk.find('(') != std::string::npos) return reset();
    // Field: last identifier before any top-level initializer.
    std::size_t cut = tokens.size();
    for (std::size_t t = 0; t < tokens.size(); ++t) {
      if (tokens[t].text == "=") {
        cut = t;
        break;
      }
    }
    if (cut < 2) return reset();  // need at least type + name
    const Token& name_tok = tokens[cut - 1];
    if (!name_tok.is_ident() || is_keyword(name_tok.text)) return reset();
    FieldDecl field;
    field.name = std::string(name_tok.text);
    field.line = source.line_of(offsets[name_tok.offset]);
    decl.fields.push_back(std::move(field));
    reset();
  };

  std::size_t i = body_begin;
  while (i < body_end) {
    const char c = code[i];
    if (c == ';') {
      finish_declaration();
      ++i;
      continue;
    }
    if (c == ':' && i + 1 < body_end && code[i + 1] != ':' &&
        (i == 0 || code[i - 1] != ':')) {
      // Access specifier labels end a chunk; anything else keeps the colon.
      const std::vector<Token> tokens = chunk_tokens();
      const std::string_view last = last_token(tokens);
      if (last == "public" || last == "protected" || last == "private") {
        reset();
        ++i;
        continue;
      }
    }
    if (c == '{') {
      const std::size_t close =
          match_brace(std::string_view(code).substr(0, body_end), i);
      if (close == std::string_view::npos) break;  // malformed; stop safely
      const std::vector<Token> tokens = chunk_tokens();
      const std::string_view last = last_token(tokens);
      const bool is_body = last == ")" || last == "const" ||
                           last == "override" || last == "noexcept" ||
                           last == "final";
      if (is_body) {
        if (std::string name = method_name_of(tokens); !name.empty()) {
          out.inline_bodies[{decl.name, std::move(name)}].push_back(
              MethodBody{std::string(), i + 1, close, source.line_of(i)});
        }
        reset();
      }
      i = close + 1;
      continue;
    }
    chunk.push_back(c);
    offsets.push_back(i);
    ++i;
  }
  finish_declaration();
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
    decl.line = source.line_of(tokens[i + 1].offset);

    std::size_t j = i + 2;
    // Qualified definitions (`struct Coordinator::Impl {`) declare the
    // last component; the qualifiers are only a path to it.
    while (j + 1 < tokens.size() && tokens[j].text == "::" &&
           tokens[j + 1].is_ident() && !is_keyword(tokens[j + 1].text)) {
      decl.name = std::string(tokens[j + 1].text);
      decl.line = source.line_of(tokens[j + 1].offset);
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
