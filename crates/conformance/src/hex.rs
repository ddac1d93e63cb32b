//! The checked-in hex vector format shared by the golden images: one
//! block per image, each an optional header line followed by the bytes as
//! lowercase hex, 32 per line; blocks separated by a blank line.

/// Renders `(header, bytes)` blocks as a hex document.
pub(crate) fn to_hex_document<'a>(
    blocks: impl IntoIterator<Item = (Option<String>, &'a [u8])>,
) -> String {
    let mut doc = String::new();
    for (i, (header, bytes)) in blocks.into_iter().enumerate() {
        if i > 0 {
            doc.push('\n');
        }
        if let Some(header) = header {
            doc.push_str(&header);
            doc.push('\n');
        }
        for chunk in bytes.chunks(32) {
            for byte in chunk {
                doc.push_str(&format!("{byte:02x}"));
            }
            doc.push('\n');
        }
    }
    doc
}

/// Parses a hex document back into its `(header, bytes)` blocks; the
/// first line of each block is its header when `headed`.
///
/// # Panics
///
/// Panics when a block is missing its header line or holds anything but
/// hex — the file is checked in, so malformation means a bad edit.
pub(crate) fn from_hex_document(doc: &str, headed: bool) -> Vec<(Option<&str>, Vec<u8>)> {
    doc.split("\n\n")
        .map(|block| {
            let mut lines = block.lines();
            let header = headed.then(|| lines.next().expect("a header line"));
            let bytes = lines
                .flat_map(|line| {
                    line.as_bytes().chunks(2).map(|pair| {
                        let text = std::str::from_utf8(pair).expect("hex is ASCII");
                        u8::from_str_radix(text, 16).expect("checked-in image must be hex")
                    })
                })
                .collect();
            (header, bytes)
        })
        .collect()
}
