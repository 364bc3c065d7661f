#include "tools/lint/rotind_lint.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace rotind {
namespace lint {
namespace {

namespace fs = std::filesystem;

/// The module layering DAG: which `src/` modules each module may include.
/// A module may always include itself; `core` is the shared foundation and
/// `simd` sits just above it (the dispatched kernel tables: distance/
/// envelope/search/obs -> simd -> core). Order of tiers (low to high):
/// core -> simd -> {cluster, distance, obs, io, shape} ->
/// fourier/envelope/lightcurve -> search/stream/datasets ->
/// index/mining/eval.
const std::map<std::string, std::set<std::string>>& AllowedDeps() {
  static const std::map<std::string, std::set<std::string>> kDeps = {
      {"core", {}},
      {"simd", {"core"}},
      {"cluster", {"core"}},
      {"distance", {"core", "simd"}},
      {"obs", {"core", "io", "simd"}},
      {"io", {"core"}},
      {"storage", {"core", "io"}},
      {"shape", {"core"}},
      {"fourier", {"core", "distance"}},
      {"envelope", {"core", "cluster", "distance", "simd"}},
      {"lightcurve", {"core", "shape"}},
      {"datasets", {"core", "shape", "lightcurve"}},
      {"stream", {"core", "cluster", "distance", "envelope"}},
      {"search", {"core", "cluster", "distance", "envelope", "fourier",
                  "obs", "simd", "storage"}},
      {"serve", {"core", "index", "obs", "search", "storage"}},
      {"index", {"core", "cluster", "distance", "envelope", "fourier", "obs",
                 "search", "storage"}},
      {"mining", {"core", "distance", "envelope", "fourier", "search"}},
      {"eval", {"core", "distance", "envelope", "fourier", "obs", "search"}},
  };
  return kDeps;
}

/// Directories whose code is a numeric kernel: tight loops, RAII-only
/// memory, reproducible randomness.
bool IsKernelPath(const std::string& path) {
  for (const char* dir : {"src/core/", "src/simd/", "src/distance/",
                          "src/envelope/", "src/fourier/", "src/search/",
                          "src/index/"}) {
    if (path.rfind(dir, 0) == 0) return true;
  }
  return false;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// If `path` is `src/<module>/...`, returns `<module>`; else "".
std::string ModuleOf(const std::string& path) {
  if (!StartsWith(path, "src/")) return "";
  const std::size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  return path.substr(4, slash - 4);
}

int LineOfOffset(const std::string& text, std::size_t offset) {
  return 1 + static_cast<int>(
                 std::count(text.begin(), text.begin() +
                            static_cast<std::ptrdiff_t>(offset), '\n'));
}

/// One pass over the file, classifying each byte as code, comment, or
/// literal. Code survives iff `!keep_comments`, comments iff
/// `keep_comments`, string/char literal bodies iff `keep_strings` (which
/// the layering check needs: include paths ARE string literals). Dropped
/// bytes become spaces; newlines always survive so line numbers stay
/// stable.
std::string FilterSource(const std::string& content, bool keep_comments,
                         bool keep_strings) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  std::string out(content.size(), ' ');
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      out[i] = '\n';
      if (state == State::kLineComment) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;  // also skip the second '/'
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"' && i > 0 && content[i - 1] == 'R' &&
                   (i < 2 || (std::isalnum(static_cast<unsigned char>(
                                  content[i - 2])) == 0 &&
                              content[i - 2] != '_'))) {
          // Raw string literal R"delim(...)delim": no escapes apply and it
          // may contain bare quotes, so a dedicated scan to its closer.
          const std::size_t open = content.find('(', i + 1);
          if (open == std::string::npos) break;  // ill-formed; give up
          const std::string closer =
              ")" + content.substr(i + 1, open - i - 1) + "\"";
          std::size_t close = content.find(closer, open + 1);
          if (close == std::string::npos) close = content.size();
          const std::size_t stop =
              std::min(content.size(), close + closer.size());
          if (!keep_comments) out[i] = c;
          for (std::size_t j = i + 1; j < stop; ++j) {
            if (content[j] == '\n') {
              out[j] = '\n';
            } else if (keep_strings) {
              out[j] = content[j];
            }
          }
          if (!keep_comments && stop <= content.size() && stop > 0 &&
              content[stop - 1] == '"') {
            out[stop - 1] = '"';
          }
          i = stop - 1;
        } else if (c == '"') {
          state = State::kString;
          if (!keep_comments) out[i] = c;
        } else if (c == '\'') {
          state = State::kChar;
          if (!keep_comments) out[i] = c;
        } else if (!keep_comments) {
          out[i] = c;
        }
        break;
      case State::kLineComment:
        if (keep_comments) out[i] = c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else if (keep_comments) {
          out[i] = c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          if (keep_strings) out[i] = c;
          ++i;  // skip the escaped character
          if (i < content.size()) {
            if (content[i] == '\n') {
              out[i] = '\n';
            } else if (keep_strings) {
              out[i] = content[i];
            }
          }
        } else if (c == '"') {
          state = State::kCode;
          if (!keep_comments) out[i] = c;
        } else if (keep_strings) {
          out[i] = c;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          if (keep_strings) out[i] = c;
          ++i;
          if (keep_strings && i < content.size() && content[i] != '\n') {
            out[i] = content[i];
          }
        } else if (c == '\'') {
          state = State::kCode;
          if (!keep_comments) out[i] = c;
        } else if (keep_strings) {
          out[i] = c;
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

}  // namespace

std::string StripCommentsAndStrings(const std::string& content) {
  return FilterSource(content, /*keep_comments=*/false,
                      /*keep_strings=*/false);
}

std::vector<Finding> CheckLayering(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  static const std::regex kInclude(
      R"(^\s*#\s*include\s+"src/([A-Za-z_0-9]+)/)");
  for (const SourceFile& file : files) {
    const std::string module = ModuleOf(file.path);
    if (module.empty()) continue;  // only src/ is layered
    const auto it = AllowedDeps().find(module);
    if (it == AllowedDeps().end()) {
      findings.push_back(
          {"layering", file.path, 1,
           "module '" + module +
               "' is not in the layer DAG; add it to AllowedDeps() in "
               "tools/lint/rotind_lint.cc with an explicit dependency set"});
      continue;
    }
    // Comments stripped, strings KEPT: the include path is a string
    // literal, but a commented-out include must not count.
    const std::vector<std::string> lines = SplitLines(FilterSource(
        file.content, /*keep_comments=*/false, /*keep_strings=*/true));
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(lines[i], m, kInclude)) continue;
      const std::string target = m[1].str();
      if (target == module || it->second.count(target) != 0) continue;
      findings.push_back(
          {"layering", file.path, static_cast<int>(i + 1),
           "module '" + module + "' may not include src/" + target +
               "/ (allowed layers are lower in the DAG); move the shared "
               "code down a layer or invert the dependency"});
    }
  }
  return findings;
}

std::vector<Finding> CheckNodiscard(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  // A declaration line returning Status or StatusOr<...>. `Status::` never
  // matches (no whitespace before the callee name), so `return
  // Status::InvalidArgument(...)` is not a declaration.
  static const std::regex kDecl(
      R"(^\s*(?:\[\[nodiscard\]\]\s*)?(?:friend\s+|static\s+|virtual\s+)*)"
      R"((?:Status|StatusOr\s*<[^;{}()]*>)\s+[A-Za-z_]\w*\s*\()");
  // The wrapped form: the return type alone on one line, the declarator
  // opening on the next (how clang-format breaks a long declaration).
  static const std::regex kRetTypeOnly(
      R"(^\s*(?:\[\[nodiscard\]\]\s*)?(?:friend\s+|static\s+|virtual\s+)*)"
      R"((?:Status|StatusOr\s*<[^;{}()]*>)\s*$)");
  static const std::regex kDeclaratorNext(R"(^\s*[A-Za-z_]\w*\s*\()");
  for (const SourceFile& file : files) {
    if (!EndsWith(file.path, ".h")) continue;
    const std::vector<std::string> lines =
        SplitLines(StripCommentsAndStrings(file.content));
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const bool same_line = std::regex_search(lines[i], kDecl);
      const bool wrapped = !same_line && i + 1 < lines.size() &&
                           std::regex_search(lines[i], kRetTypeOnly) &&
                           std::regex_search(lines[i + 1], kDeclaratorNext);
      if (!same_line && !wrapped) continue;
      const bool attributed =
          lines[i].find("[[nodiscard]]") != std::string::npos ||
          (i > 0 && lines[i - 1].find("[[nodiscard]]") != std::string::npos);
      if (attributed) continue;
      findings.push_back(
          {"nodiscard", file.path, static_cast<int>(i + 1),
           "Status/StatusOr-returning declaration must be [[nodiscard]]: a "
           "silently dropped error Status is how corrupt inputs turn into "
           "wrong nearest neighbors"});
    }
  }
  return findings;
}

std::vector<Finding> CheckUncheckedValue(
    const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  static const std::regex kValue(R"([.>]\s*value\s*\(\s*\))");
  for (const SourceFile& file : files) {
    if (StartsWith(file.path, "tests/")) continue;  // asserting is the job
    const std::string code = StripCommentsAndStrings(file.content);
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kValue);
         it != std::sregex_iterator(); ++it) {
      findings.push_back(
          {"unchecked-value", file.path,
           LineOfOffset(code, static_cast<std::size_t>(it->position())),
           ".value() asserts success and is reserved for tests/; "
           "production code must branch on ok() and propagate the Status"});
    }
  }
  return findings;
}

std::vector<Finding> CheckKernelHygiene(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  static const std::regex kToken(R"(\b(new|delete|rand)\b)");
  for (const SourceFile& file : files) {
    if (!IsKernelPath(file.path)) continue;
    const std::string code = StripCommentsAndStrings(file.content);
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kToken);
         it != std::sregex_iterator(); ++it) {
      const std::string token = (*it)[1].str();
      const std::size_t pos = static_cast<std::size_t>(it->position());
      if (token == "rand") {
        // Only the C library call `rand(...)`; identifiers merely
        // containing "rand" are excluded by the word boundary, and
        // qualified spellings like std::rand still match here.
        std::size_t after = pos + token.size();
        while (after < code.size() &&
               std::isspace(static_cast<unsigned char>(code[after]))) {
          ++after;
        }
        if (after >= code.size() || code[after] != '(') continue;
        findings.push_back(
            {"kernel-hygiene", file.path, LineOfOffset(code, pos),
             "rand() in a kernel directory; use the seeded rotind::Rng so "
             "every experiment is reproducible from its seed"});
        continue;
      }
      if (token == "delete") {
        // `= delete`d special members are declarations, not deallocation.
        std::size_t before = pos;
        while (before > 0 && std::isspace(static_cast<unsigned char>(
                                 code[before - 1]))) {
          --before;
        }
        if (before > 0 && code[before - 1] == '=') continue;
      }
      findings.push_back(
          {"kernel-hygiene", file.path, LineOfOffset(code, pos),
           "raw '" + token +
               "' in a kernel directory; kernels are RAII-only — use "
               "std::vector / std::unique_ptr / std::make_unique"});
    }
  }
  return findings;
}

std::vector<Finding> CheckIntrinsicsOutsideSimd(
    const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  // x86 SIMD surfaces: the umbrella/vendor intrinsic headers, the _mm*
  // intrinsic call prefixes, and the __m* register types. Everything else
  // must go through the simd::KernelTable so scalar parity, dispatch, and
  // the no-FMA build flags stay enforceable in ONE directory.
  static const std::regex kHeader(
      R"(^\s*#\s*include\s*[<"][A-Za-z0-9_/]*)"
      R"((immintrin|x86intrin|[a-z]mmintrin|avx[0-9a-z]*intrin)\.h[>"])");
  static const std::regex kToken(
      R"(\b_mm(256|512)?_[A-Za-z0-9_]+|\b__m(64|128|256|512)[di]?\b)");
  for (const SourceFile& file : files) {
    if (StartsWith(file.path, "src/simd/")) continue;
    // Includes are string-ish tokens; keep strings for the header scan.
    const std::string with_strings = FilterSource(
        file.content, /*keep_comments=*/false, /*keep_strings=*/true);
    const std::vector<std::string> lines = SplitLines(with_strings);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (!std::regex_search(lines[i], kHeader)) continue;
      findings.push_back(
          {"intrinsics-outside-simd", file.path, static_cast<int>(i + 1),
           "intrinsic header included outside src/simd/; vector code lives "
           "behind simd::KernelTable so every kernel has a bit-exact scalar "
           "twin and one dispatch point"});
    }
    const std::string code = StripCommentsAndStrings(file.content);
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kToken);
         it != std::sregex_iterator(); ++it) {
      findings.push_back(
          {"intrinsics-outside-simd", file.path,
           LineOfOffset(code, static_cast<std::size_t>(it->position())),
           "x86 intrinsic used outside src/simd/; call through "
           "simd::Kernels() (add a kernel entry if none fits) so the scalar "
           "tier and parity tests stay complete"});
    }
  }
  return findings;
}

std::vector<Finding> CheckTestRegistration(
    const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  const SourceFile* cmake = nullptr;
  for (const SourceFile& file : files) {
    if (file.path == "tests/CMakeLists.txt") cmake = &file;
  }
  for (const SourceFile& file : files) {
    if (!StartsWith(file.path, "tests/") || !EndsWith(file.path, "_test.cc")) {
      continue;
    }
    if (file.path.find('/', 6) != std::string::npos) continue;  // subdirs
    const std::string name = file.path.substr(6);
    if (cmake == nullptr) {
      findings.push_back({"unregistered-test", file.path, 1,
                          "tests/CMakeLists.txt is missing, so " + name +
                              " cannot be registered anywhere"});
      continue;
    }
    if (cmake->content.find(name) != std::string::npos) continue;
    findings.push_back(
        {"unregistered-test", file.path, 1,
         name + " is not listed in tests/CMakeLists.txt "
                "(ROTIND_TEST_SOURCES); an unregistered test never runs"});
  }
  return findings;
}

std::vector<Finding> CheckNolintReasons(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  // A valid suppression (plain, NEXTLINE, or BEGIN form) names its check
  // in parentheses and follows with ": reason"; the END form needs only
  // the matching check name.
  static const std::regex kAny(R"(NOLINT(NEXTLINE|BEGIN|END)?)");
  static const std::regex kValid(
      R"(NOLINT(NEXTLINE|BEGIN)?\([^)]+\)\s*:\s*\S|NOLINTEND\([^)]+\))");
  for (const SourceFile& file : files) {
    const std::string comments = FilterSource(
        file.content, /*keep_comments=*/true, /*keep_strings=*/false);
    for (auto it =
             std::sregex_iterator(comments.begin(), comments.end(), kAny);
         it != std::sregex_iterator(); ++it) {
      const std::size_t pos = static_cast<std::size_t>(it->position());
      // Re-anchor the validity pattern at this exact occurrence.
      std::smatch m;
      const std::string tail = comments.substr(pos);
      if (std::regex_search(tail, m, kValid) && m.position() == 0) continue;
      findings.push_back(
          {"nolint-reason", file.path, LineOfOffset(comments, pos),
           "suppression must name its check and give a written reason: "
           "`NOLINTNEXTLINE(<check>): <why this is safe here>`"});
    }
  }
  return findings;
}

std::vector<Finding> CheckSyncPrimitives(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  // The std vocabulary that bypasses the annotated layer. CondVar wraps
  // condition_variable_any; the generic lock adapters are covered so a
  // rotind::Mutex cannot be driven through an unannotated std guard.
  static const std::regex kToken(
      R"(\bstd\s*::\s*(condition_variable_any|condition_variable|mutex|)"
      R"(recursive_mutex|timed_mutex|recursive_timed_mutex|shared_mutex|)"
      R"(shared_timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock)\b)");
  static const std::regex kInclude(
      R"(^\s*#\s*include\s*<(mutex|condition_variable|shared_mutex)>)");
  for (const SourceFile& file : files) {
    if (!StartsWith(file.path, "src/")) continue;
    if (file.path == "src/core/sync.h") continue;  // the one wrapping TU
    const std::string code = StripCommentsAndStrings(file.content);
    const std::vector<std::string> lines = SplitLines(code);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::smatch m;
      std::string what;
      if (std::regex_search(lines[i], m, kToken)) {
        what = "std::" + m[1].str();
      } else if (std::regex_search(lines[i], m, kInclude)) {
        what = "#include <" + m[1].str() + ">";
      } else {
        continue;
      }
      findings.push_back(
          {"raw-sync-primitive", file.path, static_cast<int>(i + 1),
           what +
               " in src/ outside core/sync.h; use rotind::Mutex / "
               "MutexLock / CondVar so Clang -Wthread-safety can prove the "
               "lock discipline (tests/, bench/, tools/ are exempt)"});
    }
  }
  return findings;
}

std::vector<Finding> CheckGuardedMembers(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  // A rotind::Mutex member declaration marks its enclosing brace block as
  // a synchronized class. Member names end in '_' by convention, which is
  // what separates them from locals in function bodies.
  static const std::regex kMutexMember(
      R"(\b(?:rotind\s*::\s*)?Mutex\s+[A-Za-z_]\w*_\s*[;{])");
  static const std::regex kMemberDecl(R"(([A-Za-z_]\w*_)\s*(?:;|=[^=]|\{))");
  // Lines that are not mutable instance state (or not state at all).
  static const std::regex kSkipLead(
      R"(^\s*(?:const\b|static\b|constexpr\b|using\b|typedef\b|friend\b|)"
      R"(enum\b|struct\b|class\b|public\s*:|private\s*:|protected\s*:))");
  for (const SourceFile& file : files) {
    if (!StartsWith(file.path, "src/")) continue;
    if (file.path == "src/core/sync.h") continue;
    const std::vector<std::string> code =
        SplitLines(StripCommentsAndStrings(file.content));
    const std::vector<std::string> comments = SplitLines(FilterSource(
        file.content, /*keep_comments=*/true, /*keep_strings=*/false));
    // Brace-block id at the start of each line: two lines share an id iff
    // the same unclosed '{' encloses both. Nested structs are therefore
    // different blocks and never inherit the outer class's mutex.
    std::vector<int> block_of_line(code.size(), 0);
    {
      std::vector<int> stack{0};
      int next_id = 1;
      for (std::size_t i = 0; i < code.size(); ++i) {
        block_of_line[i] = stack.back();
        for (const char c : code[i]) {
          if (c == '{') {
            stack.push_back(next_id++);
          } else if (c == '}' && stack.size() > 1) {
            stack.pop_back();
          }
        }
      }
    }
    std::set<int> synchronized;
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (std::regex_search(code[i], kMutexMember)) {
        synchronized.insert(block_of_line[i]);
      }
    }
    if (synchronized.empty()) continue;
    const auto is_blank = [](const std::string& s) {
      for (const char c : s) {
        if (std::isspace(static_cast<unsigned char>(c)) == 0) return false;
      }
      return true;
    };
    // SYNC-EXEMPT on the declaration line itself, or anywhere in the
    // contiguous comment block directly above it.
    const auto exempt = [&](std::size_t i) {
      if (i < comments.size() &&
          comments[i].find("SYNC-EXEMPT:") != std::string::npos) {
        return true;
      }
      for (std::size_t j = i; j > 0;) {
        --j;
        if (!is_blank(code[j])) return false;  // real code ends the block
        if (j >= comments.size() || is_blank(comments[j])) return false;
        if (comments[j].find("SYNC-EXEMPT:") != std::string::npos) {
          return true;
        }
      }
      return false;
    };
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (synchronized.count(block_of_line[i]) == 0) continue;
      const std::string& line = code[i];
      if (line.find("ROTIND_GUARDED_BY(") != std::string::npos ||
          line.find("ROTIND_PT_GUARDED_BY(") != std::string::npos) {
        continue;
      }
      if (std::regex_search(line, kMutexMember)) continue;  // the guard
      if (line.find("CondVar") != std::string::npos) continue;
      if (std::regex_search(line, kSkipLead)) continue;
      // A '(' means a function declaration or a paren initializer — out of
      // this heuristic's scope (the Clang analysis still covers the field).
      if (line.find('(') != std::string::npos) continue;
      std::smatch m;
      if (!std::regex_search(line, m, kMemberDecl)) continue;
      if (exempt(i)) continue;
      findings.push_back(
          {"guarded-by", file.path, static_cast<int>(i + 1),
           "member '" + m[1].str() +
               "' shares a class with a rotind::Mutex but is neither "
               "ROTIND_GUARDED_BY / ROTIND_PT_GUARDED_BY, const, nor "
               "'// SYNC-EXEMPT: <reason>'; every field of a synchronized "
               "class must name its guard or justify not having one"});
    }
  }
  return findings;
}

std::vector<Finding> CheckAtomicAllowlist(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  // std::atomic is invisible to the thread-safety analysis, so each file
  // using one carries a standing justification here:
  //   core/cancel.h        lock-free cancel flag + shared kill-switch
  //   core/sync.h          the sync layer itself
  //   search/engine.cc     ParallelFor work counter / failure latch
  //   serve/server.h       the server kill-switch (SYNC-EXEMPT'd member)
  //   storage/simulated_disk.h  concurrent fetch tallies
  static const std::set<std::string> kAllowed = {
      "src/core/cancel.h", "src/core/sync.h", "src/search/engine.cc",
      "src/serve/server.h", "src/storage/simulated_disk.h"};
  static const std::regex kToken(R"(\bstd\s*::\s*atomic\b)");
  for (const SourceFile& file : files) {
    if (!StartsWith(file.path, "src/")) continue;
    if (kAllowed.count(file.path) != 0) continue;
    const std::string code = StripCommentsAndStrings(file.content);
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kToken);
         it != std::sregex_iterator(); ++it) {
      findings.push_back(
          {"atomic-allowlist", file.path,
           LineOfOffset(code, static_cast<std::size_t>(it->position())),
           "std::atomic outside the allowlist: atomics bypass the "
           "thread-safety analysis, so prefer a rotind::Mutex-guarded "
           "field, or add this file to CheckAtomicAllowlist's list with a "
           "written justification"});
    }
  }
  return findings;
}

std::vector<Finding> CheckRawFileMutation(
    const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  // Direct libc file mutation outside the storage/io layers defeats the
  // crash-safety story: a stray fopen can tear a file no checksum guards,
  // and a stray rename can publish state the manifest never blessed. The
  // sanctioned primitives are io::WriteStringToFile (temp-free whole-file
  // write) and storage::WriteManifest (temp write + atomic rename).
  static const std::regex kToken(R"(\b(?:std\s*::\s*)?(fopen|rename)\s*\()");
  for (const SourceFile& file : files) {
    if (!StartsWith(file.path, "src/")) continue;
    if (StartsWith(file.path, "src/io/") ||
        StartsWith(file.path, "src/storage/")) {
      continue;
    }
    const std::string code = StripCommentsAndStrings(file.content);
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kToken);
         it != std::sregex_iterator(); ++it) {
      const std::size_t pos = static_cast<std::size_t>(it->position());
      // Member calls (x.rename(...), p->rename(...)) and non-std qualified
      // names (fs::rename matches with its qualifier OUTSIDE the token)
      // are someone else's API, not the libc call.
      std::size_t before = pos;
      while (before > 0 && std::isspace(static_cast<unsigned char>(
                               code[before - 1]))) {
        --before;
      }
      if (before > 0 && (code[before - 1] == '.' || code[before - 1] == '>' ||
                         code[before - 1] == ':')) {
        continue;
      }
      findings.push_back(
          {"raw-file-mutation", file.path, LineOfOffset(code, pos),
           (*it)[1].str() +
               "() in src/ outside src/io/ + src/storage/; write files "
               "through io::WriteStringToFile and publish multi-file state "
               "through storage::WriteManifest (temp write + atomic rename) "
               "so crash safety stays provable in one place"});
    }
  }
  return findings;
}

std::vector<Finding> RunAllChecks(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  for (auto* check :
       {CheckLayering, CheckNodiscard, CheckUncheckedValue,
        CheckKernelHygiene, CheckIntrinsicsOutsideSimd, CheckTestRegistration,
        CheckNolintReasons, CheckSyncPrimitives, CheckGuardedMembers,
        CheckAtomicAllowlist, CheckRawFileMutation}) {
    std::vector<Finding> f = check(files);
    findings.insert(findings.end(), std::make_move_iterator(f.begin()),
                    std::make_move_iterator(f.end()));
  }
  SortFindings(&findings);
  return findings;
}

StatusOr<std::vector<SourceFile>> LoadSourceTree(
    const std::string& repo_root) {
  const fs::path root(repo_root);
  std::error_code ec;
  if (!fs::is_directory(root / "src", ec)) {
    return Status::NotFound("not a rotind repository (no src/ directory): " +
                            repo_root);
  }
  std::vector<SourceFile> files;
  for (const char* top : {"src", "tools", "bench", "tests", "examples"}) {
    const fs::path dir = root / top;
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const std::string ext = it->path().extension().string();
      const bool is_source = ext == ".h" || ext == ".cc" || ext == ".cpp";
      const bool is_test_cmake =
          std::string(top) == "tests" &&
          it->path().filename() == "CMakeLists.txt";
      if (!is_source && !is_test_cmake) continue;
      std::ifstream in(it->path(), std::ios::binary);
      if (!in) {
        return Status::IoError("cannot read " + it->path().string());
      }
      std::string content((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
      std::string rel =
          fs::relative(it->path(), root, ec).generic_string();
      if (ec) rel = it->path().generic_string();
      files.push_back({std::move(rel), std::move(content)});
    }
    if (ec) {
      return Status::IoError("error walking " + dir.string() + ": " +
                             ec.message());
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return files;
}

StatusOr<std::vector<Finding>> LintRepository(const std::string& repo_root) {
  StatusOr<std::vector<SourceFile>> files = LoadSourceTree(repo_root);
  if (!files.ok()) return files.status();
  return RunAllChecks(*files);
}

}  // namespace lint
}  // namespace rotind
