//! The append-only line log behind `manifest.txt` and `leases.log`: a
//! header plus one record per line, appended by several processes with one
//! `O_APPEND` write per record. A crash can tear the last line anywhere, so
//! readers take complete (`\n`-terminated) lines only — a torn tail may be
//! a longer record cut short (`done 1` of `done 123`) — and opening a log
//! writes nothing. An append after a read that ended inside a line starts
//! with `~\n` in the same write: the record is not glued to the fragment,
//! and the fragment becomes a line ending in `~`, which no record parser of
//! either log accepts, so no reader ever trusts it.
//! [`LineLog::read`] returns the lines appended since the last read, and
//! starts over when the file was replaced by a shorter one, as
//! `campaign compact` replaces the manifest.

use std::fmt;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// An append handle on one line log, and how far its reads have got.
#[derive(Debug)]
pub(crate) struct LineLog {
    pub(crate) path: PathBuf,
    file: fs::File,
    /// Byte offset just past the last complete line read.
    pos: u64,
    /// The last read ended inside a line.
    torn: bool,
    /// fsync each append (on unless turned off for tests and benches).
    pub(crate) sync: bool,
}

/// The complete lines at the start of `bytes` as text, converted in place,
/// and their length in bytes. Invalid UTF-8 is replaced, so its line fails
/// to parse like any other.
fn complete_lines(mut bytes: Vec<u8>) -> (String, usize) {
    let len = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    bytes.truncate(len);
    let text = String::from_utf8(bytes)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    (text, len)
}

impl LineLog {
    /// Create the log at `path` holding `header`, replacing any previous
    /// file, and sync it.
    pub(crate) fn create(path: &Path, header: &str) -> io::Result<()> {
        let mut file = fs::File::create(path)?;
        file.write_all(header.as_bytes())?;
        file.sync_data()
    }

    /// Open the log at `path` for appending, and return its complete lines.
    pub(crate) fn open(path: &Path) -> Result<(Self, String), String> {
        let file = fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut log = LineLog {
            path: path.to_path_buf(),
            file,
            pos: 0,
            torn: false,
            sync: true,
        };
        let (_, text) = log.read()?;
        Ok((log, text))
    }

    /// The complete lines of the whole file at `path`, for readers that
    /// never append.
    pub(crate) fn read_file(path: &Path) -> Result<String, String> {
        let bytes = fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(complete_lines(bytes).0)
    }

    /// The complete lines appended since the last read, by this handle or
    /// any other. A file now shorter than that read reached was replaced:
    /// the read starts over, returns `true`, and the text is the whole new
    /// file, header included.
    pub(crate) fn read(&mut self) -> Result<(bool, String), String> {
        let mut bytes = Vec::new();
        let replaced = fs::File::open(&self.path)
            .and_then(|mut file| {
                let replaced = file.metadata()?.len() < self.pos;
                file.seek(SeekFrom::Start(if replaced { 0 } else { self.pos }))?;
                file.read_to_end(&mut bytes).map(|_| replaced)
            })
            .map_err(|e| format!("cannot read {}: {e}", self.path.display()))?;
        let read = bytes.len();
        let (text, len) = complete_lines(bytes);
        self.pos = len as u64 + if replaced { 0 } else { self.pos };
        self.torn = len < read;
        Ok((replaced, text))
    }

    /// Append one record (given without its `\n`) with a single write, and
    /// fsync it unless sync is off. If the last read ended inside a line,
    /// the write first ends that fragment with `~\n`.
    pub(crate) fn append(&mut self, record: fmt::Arguments) -> io::Result<()> {
        let mut line = if self.torn {
            b"~\n".to_vec()
        } else {
            Vec::new()
        };
        line.write_fmt(record)?;
        line.push(b'\n');
        self.file.write_all(&line)?;
        self.torn = false;
        if self.sync {
            self.file.sync_data()?;
        }
        Ok(())
    }
}
