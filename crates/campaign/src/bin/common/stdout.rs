//! The locked stdout that the package's binaries (`campaign`,
//! `campaign-diff`) write their results through.

use std::fmt;
use std::io::{self, Write};

/// A reader that went away ends the output quietly: after a `BrokenPipe`
/// nothing more is written and the command succeeds. Any other write
/// error fails the command.
pub struct Stdout {
    out: io::StdoutLock<'static>,
    /// The reader has gone.
    pub closed: bool,
}

impl Stdout {
    pub fn new() -> Self {
        Stdout {
            out: io::stdout().lock(),
            closed: false,
        }
    }

    /// Write `text`; `Ok(false)` once the reader has gone.
    pub fn write(&mut self, text: fmt::Arguments) -> Result<bool, String> {
        if !self.closed {
            match self.out.write_fmt(text) {
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => self.closed = true,
                written => written.map_err(|e| format!("cannot write to stdout: {e}"))?,
            }
        }
        Ok(!self.closed)
    }
}
