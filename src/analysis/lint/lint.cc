#include "src/analysis/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace analysis::lint {

namespace {

// ---- pass 1: comment/string stripping + suppression harvesting ----------

struct Stripped {
  std::vector<std::string> lines;              // code-only text, 0-based
  std::map<int, std::set<std::string>> allow;  // 1-based line -> rules
  std::set<std::string> file_allow;            // rules allowed file-wide
};

// Parses "zofs-lint: allow(a, b)" out of one comment's text.
std::set<std::string> ParseAllow(std::string_view comment) {
  std::set<std::string> rules;
  const std::string_view marker = "zofs-lint: allow(";
  size_t at = comment.find(marker);
  if (at == std::string_view::npos) {
    return rules;
  }
  size_t open = at + marker.size();
  size_t close = comment.find(')', open);
  if (close == std::string_view::npos) {
    return rules;
  }
  std::string rule;
  for (size_t i = open; i <= close; i++) {
    char c = i < close ? comment[i] : ',';
    if (c == ',' ) {
      if (!rule.empty()) {
        rules.insert(rule);
        rule.clear();
      }
    } else if (!isspace(static_cast<unsigned char>(c))) {
      rule.push_back(c);
    }
  }
  return rules;
}

Stripped Strip(std::string_view src) {
  Stripped out;
  enum State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State st = kCode;
  std::string code;       // current line, code only
  std::string comment;    // current line, comment text only
  bool line_has_code = false;
  bool file_has_code = false;  // any code line seen yet (for file_allow)
  std::string raw_delim;  // raw string closing delimiter  )delim"
  int line = 1;

  auto end_line = [&]() {
    // Preprocessor directives (include guards, #includes) do not count as
    // "code" for the file-wide-suppression rule below.
    size_t first = code.find_first_not_of(" \t");
    if (first != std::string::npos && code[first] == '#') {
      line_has_code = false;
    }
    // A comment-only line before the first code in the file widens its
    // suppression to the whole file.
    std::set<std::string> rules = ParseAllow(comment);
    if (!rules.empty()) {
      if (!file_has_code && !line_has_code) {
        out.file_allow.insert(rules.begin(), rules.end());
      }
      out.allow[line].insert(rules.begin(), rules.end());
    }
    if (line_has_code) {
      file_has_code = true;
    }
    out.lines.push_back(code);
    code.clear();
    comment.clear();
    line_has_code = false;
    line++;
  };

  for (size_t i = 0; i < src.size(); i++) {
    char c = src[i];
    char n = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '\n') {
      if (st == kLineComment) {
        st = kCode;
      }
      end_line();
      continue;
    }
    switch (st) {
      case kCode:
        if (c == '/' && n == '/') {
          st = kLineComment;
          i++;
        } else if (c == '/' && n == '*') {
          st = kBlockComment;
          i++;
        } else if (c == 'R' && n == '"' &&
                   (code.empty() || !(isalnum(static_cast<unsigned char>(code.back())) ||
                                      code.back() == '_'))) {
          // R"delim( ... )delim"
          size_t p = i + 2;
          std::string delim;
          while (p < src.size() && src[p] != '(' && src[p] != '\n') {
            delim.push_back(src[p++]);
          }
          raw_delim = ")" + delim + "\"";
          st = kRawString;
          code.push_back(' ');
          line_has_code = true;
          i = p;  // at '(' (or newline, handled next loop)
        } else if (c == '"') {
          st = kString;
          code.push_back(' ');
          line_has_code = true;
        } else if (c == '\'') {
          st = kChar;
          code.push_back(' ');
          line_has_code = true;
        } else {
          code.push_back(c);
          if (!isspace(static_cast<unsigned char>(c))) {
            line_has_code = true;
          }
        }
        break;
      case kLineComment:
        comment.push_back(c);
        break;
      case kBlockComment:
        if (c == '*' && n == '/') {
          st = kCode;
          i++;
        } else {
          comment.push_back(c);
        }
        break;
      case kString:
        if (c == '\\') {
          i++;
        } else if (c == '"') {
          st = kCode;
        }
        break;
      case kChar:
        if (c == '\\') {
          i++;
        } else if (c == '\'') {
          st = kCode;
        }
        break;
      case kRawString:
        if (c == raw_delim[0] && src.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          st = kCode;
        }
        break;
    }
  }
  end_line();

  // Blank preprocessor directives (and their backslash continuations):
  // macro bodies contain unbalanced-looking braces/parens the scope tracker
  // must not see.
  bool continued = false;
  for (std::string& l : out.lines) {
    size_t first = l.find_first_not_of(" \t");
    bool is_pp = continued || (first != std::string::npos && l[first] == '#');
    size_t last = l.find_last_not_of(" \t");
    continued = is_pp && last != std::string::npos && l[last] == '\\';
    if (is_pp) {
      l.clear();
    }
  }
  return out;
}

// ---- pass 2: tokens -----------------------------------------------------

struct Token {
  std::string text;
  int line;       // 1-based
  bool is_ident;
};

std::vector<Token> Tokenize(const std::vector<std::string>& lines) {
  std::vector<Token> toks;
  for (size_t li = 0; li < lines.size(); li++) {
    const std::string& l = lines[li];
    for (size_t i = 0; i < l.size();) {
      char c = l[i];
      if (isspace(static_cast<unsigned char>(c))) {
        i++;
        continue;
      }
      if (isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < l.size() && (isalnum(static_cast<unsigned char>(l[j])) || l[j] == '_')) {
          j++;
        }
        toks.push_back({l.substr(i, j - i), static_cast<int>(li + 1), true});
        i = j;
      } else if (isdigit(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < l.size() && (isalnum(static_cast<unsigned char>(l[j])) || l[j] == '.' ||
                                l[j] == '\'')) {
          j++;
        }
        toks.push_back({l.substr(i, j - i), static_cast<int>(li + 1), false});
        i = j;
      } else {
        toks.push_back({std::string(1, c), static_cast<int>(li + 1), false});
        i++;
      }
    }
  }
  return toks;
}

// ---- pass 3: scope-aware rule matching ----------------------------------

enum class BlockKind { kNamespace, kType, kFunc, kCtrl };

struct HeldLock {
  std::string name;  // guard variable ("" for retire_mu_ scopes)
  int depth;         // block-stack depth at declaration; dies when depth drops
  int line;          // acquisition line
  bool is_retire;    // true: retire_mu_ scope, false: shard lock
  bool released = false;
};

struct FuncCtx {
  int last_clwb_tok = -1;
  int last_clwb_line = 0;
  int last_fence_tok = -1;
  // staged-append-relink: last staging write / intent publication seen.
  int staged_tok = -1;
  int staged_line = 0;
  int intent_tok = -1;
  std::vector<HeldLock> locks;
  // unchecked-inode-lock: declared lease guards whose ok() has not been
  // consulted yet (name, declaration line).
  std::vector<std::pair<std::string, int>> inode_locks;
};

bool PathUnder(const std::string& path, const std::string& dir) {
  return path.find(dir) != std::string::npos;
}

}  // namespace

const std::vector<std::string>& AllRules() {
  static const std::vector<std::string> rules = {
      kRuleRawNvmDeref, kRuleUnfencedClwb,       kRuleNakedWrpkru,
      kRuleLockOrder,   kRuleRawMutex,           kRuleStagedAppendRelink,
      kRuleDirectKernelEntry, kRuleUncheckedInodeLock, kRuleDirectKeyAssign,
  };
  return rules;
}

std::string Diagnostic::ToString() const {
  std::ostringstream os;
  os << file << ":" << line << ": " << rule << ": " << message;
  return os.str();
}

std::vector<Diagnostic> LintSource(const std::string& path, std::string_view content) {
  Stripped s = Strip(content);
  std::vector<Token> toks = Tokenize(s.lines);
  std::vector<Diagnostic> diags;

  auto suppressed = [&](const char* rule, int line) {
    if (s.file_allow.count(rule) != 0) {
      return true;
    }
    for (int l : {line, line - 1}) {
      auto it = s.allow.find(l);
      if (it != s.allow.end() && it->second.count(rule) != 0) {
        return true;
      }
    }
    return false;
  };
  auto report = [&](const char* rule, int line, std::string msg) {
    if (!suppressed(rule, line)) {
      diags.push_back({path, line, rule, std::move(msg)});
    }
  };

  const bool nvm_exempt = PathUnder(path, "src/nvm/") || PathUnder(path, "src\\nvm\\");
  const bool mpk_exempt = PathUnder(path, "src/mpk/") || PathUnder(path, "src\\mpk\\");
  // The only sanctioned crossing sites: the KernFS entry points themselves
  // and the batching channel. (mpk stays exempt too — it defines the type.)
  const bool kernel_entry_exempt =
      PathUnder(path, "src/kernfs/kernfs.cc") || PathUnder(path, "src\\kernfs\\kernfs.cc") ||
      PathUnder(path, "src/kernfs/channel.cc") || PathUnder(path, "src\\kernfs\\channel.cc") ||
      mpk_exempt;

  std::vector<BlockKind> blocks;
  std::vector<FuncCtx> funcs;
  size_t stmt_start = 0;  // token index where the current statement begins

  auto ident_at = [&](size_t i, const char* name) {
    return i < toks.size() && toks[i].is_ident && toks[i].text == name;
  };
  auto punct_at = [&](size_t i, char c) {
    return i < toks.size() && !toks[i].is_ident && toks[i].text.size() == 1 && toks[i].text[0] == c;
  };
  auto stmt_contains = [&](size_t upto, const char* name) {
    for (size_t k = stmt_start; k < upto; k++) {
      if (toks[k].is_ident && toks[k].text == name) {
        return true;
      }
    }
    return false;
  };

  static const std::set<std::string> kStdLockTypes = {
      "mutex",       "shared_mutex", "recursive_mutex", "timed_mutex",
      "lock_guard",  "unique_lock",  "shared_lock",     "scoped_lock",
      "recursive_timed_mutex", "condition_variable", "condition_variable_any"};
  static const std::set<std::string> kTypeKeywords = {"namespace", "class", "struct", "union",
                                                      "enum"};

  for (size_t i = 0; i < toks.size(); i++) {
    const Token& t = toks[i];

    if (!t.is_ident) {
      if (t.text == "{") {
        // Classify the block from its header (the current statement).
        BlockKind kind = BlockKind::kCtrl;
        bool has_type_kw = false;
        bool has_ns = false;
        bool has_paren = false;
        for (size_t k = stmt_start; k < i; k++) {
          if (toks[k].is_ident && toks[k].text == "namespace") {
            has_ns = true;
          } else if (toks[k].is_ident && kTypeKeywords.count(toks[k].text) != 0) {
            has_type_kw = true;
          } else if (!toks[k].is_ident && toks[k].text == "(") {
            has_paren = true;
          }
        }
        BlockKind parent =
            blocks.empty() ? BlockKind::kNamespace : blocks.back();
        if (has_ns) {
          kind = BlockKind::kNamespace;
        } else if (has_type_kw) {
          kind = BlockKind::kType;
        } else if ((parent == BlockKind::kNamespace || parent == BlockKind::kType) && has_paren) {
          kind = BlockKind::kFunc;
          funcs.emplace_back();
        } else {
          kind = BlockKind::kCtrl;
        }
        blocks.push_back(kind);
        stmt_start = i + 1;
        continue;
      }
      if (t.text == "}") {
        if (!blocks.empty()) {
          BlockKind kind = blocks.back();
          blocks.pop_back();
          if (kind == BlockKind::kFunc && !funcs.empty()) {
            FuncCtx& f = funcs.back();
            if (f.last_clwb_tok >= 0 && f.last_fence_tok < f.last_clwb_tok) {
              report(kRuleUnfencedClwb, f.last_clwb_line,
                     "Clwb with no Sfence/PersistRange later in this function; annotate "
                     "deferred durability if a caller fences");
            }
            for (const auto& [name, line] : f.inode_locks) {
              report(kRuleUncheckedInodeLock, line,
                     "InodeLock '" + name + "' constructed but ok() never consulted; "
                     "acquisition is a lease that can fail against a live holder — check "
                     "ok() before touching the protected inode");
            }
            funcs.pop_back();
          } else if (!funcs.empty()) {
            // Locks declared in the closed block go out of scope.
            auto& locks = funcs.back().locks;
            int depth = static_cast<int>(blocks.size());
            locks.erase(std::remove_if(locks.begin(), locks.end(),
                                       [&](const HeldLock& h) { return h.depth > depth; }),
                        locks.end());
          }
        }
        stmt_start = i + 1;
        continue;
      }
      if (t.text == ";") {
        stmt_start = i + 1;
        continue;
      }
      continue;
    }

    // ---- identifier-driven rules ----
    const bool in_func = !funcs.empty();

    // raw-mutex: std::mutex and friends anywhere (wrapper header is
    // file-allowed).
    if (t.text == "std" && punct_at(i + 1, ':') && punct_at(i + 2, ':') && i + 3 < toks.size() &&
        toks[i + 3].is_ident && kStdLockTypes.count(toks[i + 3].text) != 0) {
      report(kRuleRawMutex, t.line,
             "std::" + toks[i + 3].text + " outside src/common/mutex.h; use the annotated "
             "common:: wrappers");
    }

    // raw-nvm-deref: base() outside src/nvm.
    if (!nvm_exempt && t.text == "base" && punct_at(i + 1, '(')) {
      report(kRuleRawNvmDeref, t.line,
             "raw NvmDevice::base() pointer outside src/nvm; use the validated accessors "
             "or justify with a suppression");
    }

    // naked-wrpkru: WrPkru() outside src/mpk.
    if (!mpk_exempt && t.text == "WrPkru" && punct_at(i + 1, '(')) {
      report(kRuleNakedWrpkru, t.line,
             "bare WrPkru outside src/mpk; open/close protection windows via the RAII "
             "window types");
    }

    if (!in_func) {
      continue;
    }
    FuncCtx& f = funcs.back();

    // direct-kernel-entry: constructing the metered crossing (`KernelEntry
    // name(...)`) anywhere but the KernFS entry points / channel batch path.
    // Scope-gated to functions so the class declaration and member uses in
    // headers do not fire.
    if (!kernel_entry_exempt && t.text == "KernelEntry" && i + 1 < toks.size() &&
        toks[i + 1].is_ident && punct_at(i + 2, '(')) {
      report(kRuleDirectKernelEntry, t.line,
             "KernelEntry constructed outside src/kernfs/{kernfs,channel}.cc; route the "
             "crossing through a KernFS entry point or the thread's channel so it is "
             "metered (and batched) exactly once");
    }

    // direct-key-assign: an assignment into the physical-key bitmap
    // (`key_used_[k] = ...`) or a process's page-tag table
    // (`page_keys_[p] = ...`) — plain, compound, or atomic .store() — outside
    // src/mpk. KeyClassTable is the one sanctioned writer: a direct write
    // bypasses the class refcounts, the published class->key table and the
    // LRU key window. The single kernel page-tag sink in kernfs.cc carries
    // the one suppression. Scope-gated to functions so member declarations
    // with array extents (`bool key_used_[kNumKeys] = {...}`) do not fire.
    if (!mpk_exempt && (t.text == "key_used_" || t.text == "page_keys_") &&
        punct_at(i + 1, '[')) {
      size_t j = i + 1;
      int depth = 0;
      for (; j < toks.size(); j++) {
        if (punct_at(j, '[')) {
          depth++;
        } else if (punct_at(j, ']')) {
          if (--depth == 0) {
            break;
          }
        }
      }
      if (j < toks.size()) {
        const size_t a = j + 1;  // first token after the matching ']'
        const bool assigns =
            (punct_at(a, '=') && !punct_at(a + 1, '=')) ||
            ((punct_at(a, '|') || punct_at(a, '&') || punct_at(a, '^') || punct_at(a, '+') ||
              punct_at(a, '-')) &&
             punct_at(a + 1, '=')) ||
            (punct_at(a, '.') && ident_at(a + 1, "store"));
        if (assigns) {
          report(kRuleDirectKeyAssign, t.line,
                 "direct write to " + t.text + " outside src/mpk; route key assignment "
                 "through KeyClassTable (the one sanctioned writer) so class refcounts, "
                 "the published class->key table and the LRU key window stay coherent");
        }
      }
    }

    // unchecked-inode-lock bookkeeping: `InodeLock name(...)` declares a
    // lease guard (the qualified ctor definition `InodeLock::InodeLock` and
    // reference parameters `const InodeLock&` do not match); `name.ok()`
    // anywhere later in the function discharges it. Like unfenced-clwb, the
    // declaration line carries its own suppression even though the
    // diagnostic is decided at function end.
    if (t.text == "InodeLock" && i + 1 < toks.size() && toks[i + 1].is_ident &&
        punct_at(i + 2, '(')) {
      if (!suppressed(kRuleUncheckedInodeLock, t.line)) {
        f.inode_locks.emplace_back(toks[i + 1].text, t.line);
      }
    }
    if (t.text == "ok" && i >= 2 && punct_at(i - 1, '.') && toks[i - 2].is_ident &&
        punct_at(i + 1, '(')) {
      const std::string& checked = toks[i - 2].text;
      auto& v = f.inode_locks;
      v.erase(std::remove_if(v.begin(), v.end(),
                             [&](const auto& l) { return l.first == checked; }),
              v.end());
    }

    // unfenced-clwb bookkeeping.
    if (t.text == "Clwb" && punct_at(i + 1, '(')) {
      // A Clwb line can carry its own suppression even though the diagnostic
      // is only decided at function end.
      if (!suppressed(kRuleUnfencedClwb, t.line)) {
        f.last_clwb_tok = static_cast<int>(i);
        f.last_clwb_line = t.line;
      }
    }
    if ((t.text == "Sfence" || t.text == "PersistRange") && punct_at(i + 1, '(')) {
      f.last_fence_tok = static_cast<int>(i);
      // staged-append-relink: a fence makes partially-installed staged state
      // durable; the relink intent must already be published by then.
      if (f.staged_tok >= 0 && f.intent_tok < f.staged_tok) {
        report(kRuleStagedAppendRelink, t.line,
               "fence after staged-append writes (AllocPageStaged at line " +
                   std::to_string(f.staged_line) +
                   ") with no published relink intent; call PublishStageIntent before "
                   "fencing or annotate why this fence cannot expose staged state");
      }
      f.staged_tok = -1;  // one diagnostic per staging batch
    }

    // staged-append-relink bookkeeping.
    if (t.text == "AllocPageStaged" && punct_at(i + 1, '(')) {
      f.staged_tok = static_cast<int>(i);
      f.staged_line = t.line;
    }
    if (t.text == "PublishStageIntent") {
      f.intent_tok = static_cast<int>(i);
    }

    // lock-order bookkeeping.
    if (t.text == "ShardReadLock" || t.text == "ShardWriteLock") {
      if (ident_at(i + 1, "lk") || (i + 1 < toks.size() && toks[i + 1].is_ident)) {
        for (const HeldLock& h : f.locks) {
          if (h.is_retire && !h.released) {
            report(kRuleLockOrder, t.line,
                   "shard lock acquired while holding retire_mu_ (locked at line " +
                       std::to_string(h.line) + "); retire_mu_ is a leaf lock");
            break;
          }
        }
        f.locks.push_back({toks[i + 1].text, static_cast<int>(blocks.size()), t.line,
                           /*is_retire=*/false});
      }
    }
    if (t.text == "retire_mu_" && stmt_contains(i, "MutexLock")) {
      f.locks.push_back({"", static_cast<int>(blocks.size()), t.line, /*is_retire=*/true});
    }

    // Early release: <guard>.Unlock()
    if (t.text == "Unlock" && i >= 2 && punct_at(i - 1, '.') && toks[i - 2].is_ident) {
      for (auto it = f.locks.rbegin(); it != f.locks.rend(); ++it) {
        if (!it->is_retire && it->name == toks[i - 2].text && !it->released) {
          it->released = true;
          break;
        }
      }
    }

    // Kernel entry under a shard lock.
    if (t.text == "kfs_" && punct_at(i + 1, '-') && punct_at(i + 2, '>')) {
      for (const HeldLock& h : f.locks) {
        if (!h.is_retire && !h.released) {
          report(kRuleLockOrder, t.line,
                 "KernFS call while holding a shard lock (acquired at line " +
                     std::to_string(h.line) + "); drop the lock before entering the kernel");
          break;
        }
      }
    }
  }

  return diags;
}

std::vector<Diagnostic> LintTree(const std::string& root, std::string* error) {
  namespace fs = std::filesystem;
  std::vector<Diagnostic> diags;
  std::error_code ec;
  fs::directory_entry rootent(root, ec);
  if (ec || !rootent.exists()) {
    if (error != nullptr) {
      *error = "zofs_lint: cannot open '" + root + "'";
    }
    return diags;
  }

  std::vector<std::string> files;
  if (rootent.is_regular_file()) {
    files.push_back(root);
  } else {
    for (fs::recursive_directory_iterator it(root, fs::directory_options::skip_permission_denied,
                                             ec), end;
         it != end; it.increment(ec)) {
      if (ec) {
        break;
      }
      const fs::path& p = it->path();
      std::string name = p.filename().string();
      if (it->is_directory() &&
          (name.rfind("build", 0) == 0 || (!name.empty() && name[0] == '.'))) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) {
        continue;
      }
      std::string ext = p.extension().string();
      if (ext == ".cc" || ext == ".h") {
        files.push_back(p.generic_string());
      }
    }
  }
  std::sort(files.begin(), files.end());

  for (const std::string& f : files) {
    std::ifstream in(f, std::ios::binary);
    if (!in) {
      continue;
    }
    std::ostringstream body;
    body << in.rdbuf();
    std::vector<Diagnostic> d = LintSource(f, body.str());
    diags.insert(diags.end(), d.begin(), d.end());
  }
  return diags;
}

}  // namespace analysis::lint
