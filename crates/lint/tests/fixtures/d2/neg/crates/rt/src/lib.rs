//! A deadline in a doc example is not a clock read:
//!
//! ```
//! let deadline = std::time::Instant::now();
//! ```

pub fn elapsed_us(clock: &MonoClock) -> u64 {
    // Instant::now() is called once, inside MonoClock::new.
    clock.elapsed_us()
}
