//! Fixture: exactly one item the parser cannot classify (an item-level
//! macro invocation), followed by an ordinary function it must recover to.

thread_local! {
    static DEPTH: u8 = 0;
}

pub fn after() -> u8 {
    1
}
