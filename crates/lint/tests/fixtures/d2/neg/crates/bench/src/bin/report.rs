pub fn usage() -> &'static str {
    "report reads no SystemTime and no Instant::now"
}
