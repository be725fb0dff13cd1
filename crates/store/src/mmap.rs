//! Read-only file mapping for zero-copy segment access.
//!
//! On Unix this is a raw `mmap(2)` of the whole file — no mapping crate
//! exists in the dependency tree, and std already links libc, so the two
//! syscalls are declared directly. Everywhere else (and for files a
//! mapping cannot cover, e.g. empty ones) it degrades to reading the file
//! into a heap buffer; callers only ever see a `&[u8]`.

use std::path::Path;

/// A read-only view over a whole file's bytes: a private file mapping
/// when the platform supports it, a heap buffer otherwise.
pub struct Mapped {
    inner: Inner,
}

enum Inner {
    #[cfg(unix)]
    Map {
        ptr: *mut std::ffi::c_void,
        len: usize,
    },
    Heap(Vec<u8>),
}

// SAFETY: a private read-only mapping is immutable shared memory: no
// interior mutation can happen through `&Mapped`, so moving or sharing the
// handle across threads is safe (the raw pointer is what inhibits the
// derive).
unsafe impl Send for Mapped {}
unsafe impl Sync for Mapped {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl Mapped {
    /// Map `path` read-only. Falls back to a plain read when mapping is
    /// unavailable (non-Unix targets, zero-length files, `mmap` refusal).
    pub fn open(path: &Path) -> std::io::Result<Mapped> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if len > 0 && len <= usize::MAX as u64 {
                // SAFETY: a fresh read-only private mapping of an open fd
                // over its whole non-zero length; failure is checked below.
                let ptr = unsafe {
                    sys::mmap(
                        std::ptr::null_mut(),
                        len as usize,
                        sys::PROT_READ,
                        sys::MAP_PRIVATE,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if ptr as isize != -1 {
                    // The fd can close now: the mapping keeps the pages.
                    return Ok(Mapped {
                        inner: Inner::Map {
                            ptr,
                            len: len as usize,
                        },
                    });
                }
            }
        }
        Ok(std::fs::read(path)?.into())
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            // SAFETY: `ptr` maps `len` readable bytes that live until `drop`
            // unmaps them, and nothing writes through a `PROT_READ` mapping.
            Inner::Map { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr as *const u8, *len)
            },
            Inner::Heap(v) => v,
        }
    }

    /// Whether the bytes come from an actual file mapping (false = heap
    /// fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Inner::Map { .. } => true,
            Inner::Heap(_) => false,
        }
    }
}

impl From<Vec<u8>> for Mapped {
    fn from(bytes: Vec<u8>) -> Mapped {
        let inner = Inner::Heap(bytes);
        Mapped { inner }
    }
}

impl Drop for Mapped {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Inner::Map { ptr, len } = self.inner {
            // SAFETY: the mapping `open` made, unmapped once; `&mut self`
            // means no slice from `bytes` outlives it.
            unsafe {
                sys::munmap(ptr, len);
            }
        }
    }
}

impl std::ops::Deref for Mapped {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_file_contents() {
        let dir = std::env::temp_dir().join(format!("swmmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let mapped = Mapped::open(&path).unwrap();
        assert_eq!(&*mapped, &payload[..]);
        #[cfg(unix)]
        assert!(mapped.is_mapped());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_file_falls_back_to_heap() {
        let dir = std::env::temp_dir().join(format!("swmmap-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let mapped = Mapped::open(&path).unwrap();
        assert!(mapped.is_empty());
        assert!(!mapped.is_mapped());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(Mapped::open(Path::new("/nonexistent/swmmap")).is_err());
    }
}
