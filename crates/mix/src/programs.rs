//! Program images: named (text, initialized-data) segment pairs served
//! by a file mapper — the MIX stand-in for executables on a filesystem.

use chorus_hal::FxHashMap;
use chorus_nucleus::{Capability, MemMapper};
use parking_lot::Mutex;
use std::sync::Arc;

/// A program image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Program {
    /// Capability of the text segment.
    pub text: Capability,
    /// Text size in bytes (page aligned by the store).
    pub text_size: u64,
    /// Capability of the initialized-data segment.
    pub data: Capability,
    /// Initialized-data size in bytes (page aligned by the store).
    pub data_size: u64,
}

/// A registry of named program images on a file mapper.
pub struct ProgramStore {
    files: Arc<MemMapper>,
    page_size: u64,
    programs: Mutex<FxHashMap<String, Program>>,
}

impl ProgramStore {
    /// Creates a store over a file mapper.
    pub fn new(files: Arc<MemMapper>, page_size: u64) -> ProgramStore {
        ProgramStore {
            files,
            page_size,
            programs: Mutex::new(FxHashMap::default()),
        }
    }

    fn round_up(&self, v: u64) -> u64 {
        v.div_ceil(self.page_size) * self.page_size
    }

    /// Registers a program under `name` with the given text and
    /// initialized-data images (padded to page boundaries).
    pub fn register(&self, name: &str, text: &[u8], data: &[u8]) -> Program {
        let text_size = self.round_up(text.len().max(1) as u64);
        let data_size = self.round_up(data.len().max(1) as u64);
        let mut text_img = text.to_vec();
        text_img.resize(text_size as usize, 0);
        let mut data_img = data.to_vec();
        data_img.resize(data_size as usize, 0);
        let program = Program {
            text: self.files.create_segment(&text_img),
            text_size,
            data: self.files.create_segment(&data_img),
            data_size,
        };
        self.programs.lock().insert(name.to_string(), program);
        program
    }

    /// Looks a program up by name.
    pub fn lookup(&self, name: &str) -> Option<Program> {
        self.programs.lock().get(name).copied()
    }

    /// The underlying file mapper.
    pub fn files(&self) -> &Arc<MemMapper> {
        &self.files
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_nucleus::PortName;

    #[test]
    fn register_pads_to_pages_and_lookup_finds() {
        let files = Arc::new(MemMapper::new(PortName(1)));
        let store = ProgramStore::new(files.clone(), 256);
        let p = store.register("cat", b"text-bytes", b"data");
        assert_eq!(p.text_size, 256);
        assert_eq!(p.data_size, 256);
        assert_eq!(store.lookup("cat"), Some(p));
        assert_eq!(store.lookup("dog"), None);
        // Image contents round-trip through the mapper.
        let text = files.segment_data(p.text);
        assert_eq!(&text[..10], b"text-bytes");
        assert_eq!(text.len(), 256);
    }

    #[test]
    fn empty_images_still_occupy_one_page() {
        let files = Arc::new(MemMapper::new(PortName(1)));
        let store = ProgramStore::new(files, 256);
        let p = store.register("null", b"", b"");
        assert_eq!(p.text_size, 256);
        assert_eq!(p.data_size, 256);
    }
}
