// Source loading and lexical preprocessing for dvlint.
//
// Checks never look at raw text: they look at `code`, a same-length copy of
// the file with every comment, string/char literal (raw `R"(...)"` forms
// included), and non-#include preprocessor directive blanked to spaces
// (newlines preserved, so offsets and line numbers agree with the raw
// file).  Backslash line-continuations extend `//` comments and directives
// across lines, as in the language.  Annotations (`dvlint: ...` markers)
// are harvested from the comments before blanking; an annotation on a
// comment-only line also covers the next source line, so fields can be
// annotated either inline or on the line above.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace dynvote::lint {

struct SourceFile {
  /// Path relative to the scan root, forward slashes.
  std::string rel_path;
  /// Raw file contents.
  std::string text;
  /// `text` with comments and string/char literals blanked to spaces.
  std::string code;
  /// annotations[i] = dvlint markers covering line i+1 (1-based lines).
  std::vector<std::vector<std::string>> annotations;

  /// 1-based line number of byte `offset` in `text`/`code`.
  std::size_t line_of(std::size_t offset) const;

  /// True when `marker` (e.g. "transient", "ignore(layering)") covers
  /// `line`.  Matches "transient(...)" for marker "transient" too.
  bool has_annotation(std::size_t line, std::string_view marker) const;
};

/// Load and preprocess one file.  Throws std::runtime_error when unreadable.
SourceFile load_source(const std::string& abs_path, std::string rel_path);

struct Token {
  std::string_view text;
  /// Byte offset of the token within the span handed to tokenize().
  std::size_t offset = 0;

  bool is_ident() const {
    const char c = text.empty() ? '\0' : text.front();
    return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
  }
};

/// Identifier/number/punctuation tokens of a code span, in order.
/// Punctuation is split into single characters except `::`.
std::vector<Token> tokenize(std::string_view code);

}  // namespace dynvote::lint
