//! Query strings, urlencoded form bodies and cookies.

use std::collections::BTreeMap;

/// Percent-decode a urlencoded component (`+` means space).
pub(crate) fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() + 1 && i + 2 <= bytes.len() - 1 + 1 => {
                let hex = bytes.get(i + 1..i + 3);
                match hex
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parse `a=1&b=two` into a map (later keys win; keys without `=` map to "").
pub fn parse_query(q: &str) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for pair in q.split('&') {
        if pair.is_empty() {
            continue;
        }
        match pair.split_once('=') {
            Some((k, v)) => map.insert(url_decode(k), url_decode(v)),
            None => map.insert(url_decode(pair), String::new()),
        };
    }
    map
}

/// Parse a `Cookie:` header into name -> value.
pub fn parse_cookies(header: &str) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for part in header.split(';') {
        if let Some((k, v)) = part.split_once('=') {
            map.insert(k.trim().to_string(), v.trim().to_string());
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_basics() {
        assert_eq!(url_decode("a+b"), "a b");
        assert_eq!(url_decode("caf%C3%A9"), "café");
        assert_eq!(url_decode("%2Fhome%2Falice"), "/home/alice");
        // Malformed escapes pass through.
        assert_eq!(url_decode("100%"), "100%");
        assert_eq!(url_decode("%zz"), "%zz");
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("path=%2Fhome&sort=name&flag&x=1&x=2");
        assert_eq!(q.get("path").map(String::as_str), Some("/home"));
        assert_eq!(q.get("sort").map(String::as_str), Some("name"));
        assert_eq!(q.get("flag").map(String::as_str), Some(""));
        assert_eq!(q.get("x").map(String::as_str), Some("2"), "later key wins");
        assert!(parse_query("").is_empty());
    }

    #[test]
    fn cookie_parsing() {
        let c = parse_cookies("sid=abc123; theme=dark;broken; x=1");
        assert_eq!(c.get("sid").map(String::as_str), Some("abc123"));
        assert_eq!(c.get("theme").map(String::as_str), Some("dark"));
        assert_eq!(c.get("x").map(String::as_str), Some("1"));
        assert!(!c.contains_key("broken"));
    }
}

/// One part of a `multipart/form-data` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultipartPart {
    /// The `name` from Content-Disposition.
    pub name: String,
    /// The `filename`, when the part is a file input.
    pub filename: Option<String>,
    /// Part body bytes.
    pub data: Vec<u8>,
}

/// Extract the boundary token from a Content-Type header value like
/// `multipart/form-data; boundary=----x`.
pub fn multipart_boundary(content_type: &str) -> Option<String> {
    let (kind, rest) = content_type.split_once(';')?;
    if !kind.trim().eq_ignore_ascii_case("multipart/form-data") {
        return None;
    }
    for param in rest.split(';') {
        let (k, v) = param.split_once('=')?;
        if k.trim().eq_ignore_ascii_case("boundary") {
            return Some(v.trim().trim_matches('"').to_string());
        }
    }
    None
}

/// Parse a multipart/form-data body ("the download, and upload of multiple
/// files", §IV). Tolerates both `\r\n` and bare `\n` line endings.
pub fn parse_multipart(body: &[u8], boundary: &str) -> Vec<MultipartPart> {
    let delim = format!("--{boundary}");
    let delim_bytes = delim.as_bytes();
    let mut parts = Vec::new();
    // Split on the delimiter; each chunk between delimiters is a part.
    let positions = find_all(body, delim_bytes);
    for w in positions.windows(2) {
        let chunk = &body[w[0] + delim_bytes.len()..w[1]];
        // Terminal marker "--" means no more parts.
        if chunk.starts_with(b"--") {
            break;
        }
        // Strip one leading newline, split headers from data at the blank line.
        let chunk = strip_leading_newline(chunk);
        let Some((head, data)) = split_blank_line(chunk) else {
            continue;
        };
        let headers = String::from_utf8_lossy(head);
        let mut name = String::new();
        let mut filename = None;
        for line in headers.lines() {
            let lower = line.to_ascii_lowercase();
            if lower.starts_with("content-disposition:") {
                for param in line.split(';') {
                    let param = param.trim();
                    if let Some(v) = param.strip_prefix("name=") {
                        name = v.trim_matches('"').to_string();
                    } else if let Some(v) = param.strip_prefix("filename=") {
                        filename = Some(v.trim_matches('"').to_string());
                    }
                }
            }
        }
        // Data ends before the newline that precedes the next delimiter.
        let data = strip_trailing_newline(data);
        parts.push(MultipartPart {
            name,
            filename,
            data: data.to_vec(),
        });
    }
    parts
}

/// Start offsets of the non-overlapping occurrences of `needle` in `hay`,
/// left to right, by a Knuth–Morris–Pratt scan: O(hay + needle). The
/// boundary comes from the client's `Content-Type` and may be nearly as
/// long as the 32 KiB head, so comparing the whole delimiter at every
/// body offset would hold a worker for seconds on an 8 MiB body.
fn find_all(hay: &[u8], needle: &[u8]) -> Vec<usize> {
    // fail[k]: length of the longest proper prefix of `needle[..=k]` that
    // is also its suffix.
    let mut fail = vec![0; needle.len()];
    let mut k = 0;
    for i in 1..needle.len() {
        while k > 0 && needle[i] != needle[k] {
            k = fail[k - 1];
        }
        if needle[i] == needle[k] {
            k += 1;
        }
        fail[i] = k;
    }
    let mut found = Vec::new();
    // Bytes of `needle` matched so far.
    let mut k = 0;
    for (i, &c) in hay.iter().enumerate() {
        while k > 0 && c != needle[k] {
            k = fail[k - 1];
        }
        if c == needle[k] {
            k += 1;
        }
        if k == needle.len() {
            found.push(i + 1 - k);
            // Non-overlapping: the next match starts past this one.
            k = 0;
        }
    }
    found
}

fn strip_leading_newline(b: &[u8]) -> &[u8] {
    if b.starts_with(b"\r\n") {
        &b[2..]
    } else if b.starts_with(b"\n") {
        &b[1..]
    } else {
        b
    }
}

fn strip_trailing_newline(b: &[u8]) -> &[u8] {
    if b.ends_with(b"\r\n") {
        &b[..b.len() - 2]
    } else if b.ends_with(b"\n") {
        &b[..b.len() - 1]
    } else {
        b
    }
}

fn split_blank_line(b: &[u8]) -> Option<(&[u8], &[u8])> {
    for (i, w) in b.windows(4).enumerate() {
        if w == b"\r\n\r\n" {
            return Some((&b[..i], &b[i + 4..]));
        }
    }
    for (i, w) in b.windows(2).enumerate() {
        if w == b"\n\n" {
            return Some((&b[..i], &b[i + 2..]));
        }
    }
    None
}

#[cfg(test)]
mod multipart_tests {
    use super::*;

    fn sample_body(boundary: &str) -> Vec<u8> {
        format!(
            "--{b}\r\nContent-Disposition: form-data; name=\"note\"\r\n\r\njust text\r\n--{b}\r\nContent-Disposition: form-data; name=\"file1\"; filename=\"a.mini\"\r\nContent-Type: text/plain\r\n\r\nfn main() {{ }}\r\n--{b}\r\nContent-Disposition: form-data; name=\"file2\"; filename=\"b.txt\"\r\n\r\nbytes\x00here\r\n--{b}--\r\n",
            b = boundary
        )
        .into_bytes()
    }

    #[test]
    fn boundary_extraction() {
        assert_eq!(
            multipart_boundary("multipart/form-data; boundary=----WebKit123"),
            Some("----WebKit123".to_string())
        );
        assert_eq!(
            multipart_boundary("multipart/form-data; boundary=\"quoted\""),
            Some("quoted".to_string())
        );
        assert_eq!(multipart_boundary("application/json"), None);
        assert_eq!(multipart_boundary("multipart/form-data"), None);
    }

    #[test]
    fn parses_fields_and_files() {
        let body = sample_body("XYZ");
        let parts = parse_multipart(&body, "XYZ");
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].name, "note");
        assert_eq!(parts[0].filename, None);
        assert_eq!(parts[0].data, b"just text");
        assert_eq!(parts[1].filename.as_deref(), Some("a.mini"));
        assert_eq!(parts[1].data, b"fn main() { }");
        assert_eq!(parts[2].data, b"bytes\x00here");
    }

    #[test]
    fn tolerates_bare_newlines() {
        let body = b"--B\nContent-Disposition: form-data; name=\"x\"\n\nvalue\n--B--\n".to_vec();
        let parts = parse_multipart(&body, "B");
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].data, b"value");
    }

    /// Every haystack up to 10 bytes and every delimiter up to 4 bytes over
    /// a two-letter alphabet, where self-overlapping delimiters and near
    /// misses are the common case: the KMP scan finds exactly what a
    /// compare-at-every-offset scan finds.
    #[test]
    fn delimiter_search_matches_a_naive_scan() {
        fn naive(hay: &[u8], needle: &[u8]) -> Vec<usize> {
            let mut found = Vec::new();
            let mut i = 0;
            while i + needle.len() <= hay.len() {
                if &hay[i..i + needle.len()] == needle {
                    found.push(i);
                    i += needle.len();
                } else {
                    i += 1;
                }
            }
            found
        }
        // Every word over {a, b} of at most `max` letters, shortest first.
        let words = |max: usize| {
            (0..=max).flat_map(|len| {
                (0..1u32 << len).map(move |bits| {
                    (0..len)
                        .map(|j| if bits >> j & 1 == 1 { b'b' } else { b'a' })
                        .collect::<Vec<u8>>()
                })
            })
        };
        for needle in words(4).skip(1) {
            for hay in words(10) {
                assert_eq!(
                    find_all(&hay, &needle),
                    naive(&hay, &needle),
                    "{hay:?} {needle:?}"
                );
            }
        }
    }

    #[test]
    fn empty_and_garbage_bodies() {
        assert!(parse_multipart(b"", "B").is_empty());
        assert!(parse_multipart(b"no delimiters here", "B").is_empty());
        // Missing blank line in a part: part skipped, no panic.
        let body = b"--B\nheader-without-blank\n--B--".to_vec();
        assert!(parse_multipart(&body, "B").is_empty());
    }
}
