pub fn crew_helper() -> i32 {
    let h = std::thread::spawn(|| 40 + 2);
    h.join().unwrap_or(0)
}
