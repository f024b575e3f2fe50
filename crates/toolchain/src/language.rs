//! Source-language detection.
//!
//! The portal's upload form accepts C, C++, Java and MiniLang sources; only
//! MiniLang compiles to the cluster's executable format (the VM). The other
//! three are recognized — by extension first, content heuristics second —
//! so the pipeline can say *what* it found and how to port it, instead of
//! producing a wall of parse errors.

use std::fmt;

/// The languages the portal recognizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LanguageId {
    /// C (`.c`).
    C,
    /// C++ (`.cpp`, `.cc`, `.cxx`).
    Cpp,
    /// Java (`.java`).
    Java,
    /// The teaching language this portal executes (`.mini`, `.ml`).
    MiniLang,
    /// Unknown / plain data.
    Unknown,
}

impl fmt::Display for LanguageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LanguageId::C => "C",
            LanguageId::Cpp => "C++",
            LanguageId::Java => "Java",
            LanguageId::MiniLang => "MiniLang",
            LanguageId::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

impl LanguageId {
    /// Detect from a filename extension.
    pub(crate) fn from_extension(path: &str) -> LanguageId {
        let ext = path.rsplit('.').next().unwrap_or("").to_ascii_lowercase();
        match ext.as_str() {
            "c" => LanguageId::C,
            "cpp" | "cc" | "cxx" | "hpp" => LanguageId::Cpp,
            "java" => LanguageId::Java,
            "mini" | "ml" => LanguageId::MiniLang,
            _ => LanguageId::Unknown,
        }
    }

    /// Content sniffing for extensionless uploads.
    pub(crate) fn sniff(source: &str) -> LanguageId {
        let head: String = source.lines().take(50).collect::<Vec<_>>().join("\n");
        if head.contains("#include") {
            return if head.contains("std::")
                || head.contains("iostream")
                || head.contains("template<")
            {
                LanguageId::Cpp
            } else {
                LanguageId::C
            };
        }
        if head.contains("public class")
            || head.contains("public static void main")
            || head.contains("System.out")
        {
            return LanguageId::Java;
        }
        if head.contains("fn ")
            && (head.contains("var ") || head.contains("println(") || head.contains("spawn "))
        {
            return LanguageId::MiniLang;
        }
        LanguageId::Unknown
    }

    /// Extension first, content as fallback.
    pub fn detect(path: &str, source: &str) -> LanguageId {
        match LanguageId::from_extension(path) {
            LanguageId::Unknown => LanguageId::sniff(source),
            known => known,
        }
    }

    /// Can this portal execute the language directly?
    pub(crate) fn executable_here(self) -> bool {
        self == LanguageId::MiniLang
    }

    /// One-line porting hint shown by the pipeline for non-executable
    /// languages.
    pub(crate) fn porting_hint(self) -> Option<&'static str> {
        match self {
            LanguageId::C | LanguageId::Cpp => Some(
                "this cluster executes the MiniLang teaching dialect: replace type declarations with `var`, \
                 pthread_create/join with `spawn`/`join`, pthread_mutex with `mutex()`/`lock`/`unlock`",
            ),
            LanguageId::Java => Some(
                "this cluster executes the MiniLang teaching dialect: replace class boilerplate with free \
                 functions, `synchronized` with `lock`/`unlock`, Thread.start with `spawn`",
            ),
            LanguageId::MiniLang | LanguageId::Unknown => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_detection() {
        assert_eq!(LanguageId::from_extension("prog.c"), LanguageId::C);
        assert_eq!(LanguageId::from_extension("prog.cpp"), LanguageId::Cpp);
        assert_eq!(LanguageId::from_extension("Main.java"), LanguageId::Java);
        assert_eq!(
            LanguageId::from_extension("lab1.mini"),
            LanguageId::MiniLang
        );
        assert_eq!(LanguageId::from_extension("README"), LanguageId::Unknown);
    }

    #[test]
    fn content_sniffing() {
        assert_eq!(
            LanguageId::sniff("#include <stdio.h>\nint main(){}"),
            LanguageId::C
        );
        assert_eq!(
            LanguageId::sniff("#include <iostream>\nint main(){std::cout;}"),
            LanguageId::Cpp
        );
        assert_eq!(
            LanguageId::sniff("public class Main { public static void main(String[] a){} }"),
            LanguageId::Java
        );
        assert_eq!(
            LanguageId::sniff("fn main() { println(1); }"),
            LanguageId::MiniLang
        );
        assert_eq!(LanguageId::sniff("hello world"), LanguageId::Unknown);
    }

    #[test]
    fn detect_prefers_extension() {
        assert_eq!(
            LanguageId::detect("x.java", "#include <stdio.h>"),
            LanguageId::Java
        );
        assert_eq!(
            LanguageId::detect("noext", "fn main() { var x = 1; }"),
            LanguageId::MiniLang
        );
    }

    #[test]
    fn executability_and_hints() {
        assert!(LanguageId::MiniLang.executable_here());
        assert!(!LanguageId::Java.executable_here());
        assert!(LanguageId::C.porting_hint().unwrap().contains("pthread"));
        assert!(LanguageId::Java
            .porting_hint()
            .unwrap()
            .contains("synchronized"));
        assert!(LanguageId::MiniLang.porting_hint().is_none());
    }
}
