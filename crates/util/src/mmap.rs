//! Read-only memory-mapped byte buffers.
//!
//! [`MappedBytes`] gives the artifact store zero-copy access to files on
//! disk: a warm hit served from a mapping costs a checksum walk over the
//! mapped pages, not a `read(2)` into a fresh `Vec`.
//! The build box is offline (no `memmap2`), so on Unix the mapping is a
//! direct `mmap(2)` through a minimal `extern "C"` shim against the libc
//! that `std` already links; everywhere else — and whenever the syscall
//! fails — it degrades to an owned heap buffer read with [`std::fs::read`].
//! Callers never observe the difference except through
//! [`is_mapped`](MappedBytes::is_mapped).
//!
//! # Safety contract
//!
//! The mapping is `PROT_READ` + `MAP_PRIVATE`: writes through other file
//! descriptors do not tear pages we already read, and the store only ever
//! replaces artifact files via atomic rename, which leaves the old inode
//! (and thus this mapping) intact. Truncating a mapped file *in place*
//! from outside the process is outside the contract — as with every
//! mmap-based reader, faulting a page past the new EOF would raise
//! `SIGBUS`. The store never truncates in place.
//!
//! # Examples
//!
//! ```
//! use mbqc_util::mmap::MappedBytes;
//!
//! let dir = std::env::temp_dir().join(format!("mbqc-mmap-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("blob.bin");
//! std::fs::write(&path, b"hello mmap").unwrap();
//!
//! let bytes = MappedBytes::open(&path).unwrap();
//! assert_eq!(&bytes[..], b"hello mmap");
//!
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use std::io;
use std::ops::Deref;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    // The workspace has no libc crate; std already links libc on every
    // Unix target, so these two symbols resolve at link time.
    unsafe extern "C" {
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

/// An immutable byte buffer backed by a memory-mapped file when the
/// platform allows it, or an owned heap allocation otherwise.
#[derive(Debug)]
pub struct MappedBytes {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    #[cfg(unix)]
    Mapped {
        ptr: *const u8,
        len: usize,
    },
    Heap(Vec<u8>),
}

// SAFETY: the mapping is read-only and private; the pointer is never
// mutated after construction and `munmap` runs exactly once in `Drop`.
// Shared `&self` access from any thread only reads the mapped pages.
unsafe impl Send for MappedBytes {}
unsafe impl Sync for MappedBytes {}

impl MappedBytes {
    /// Opens `path` and maps its current contents read-only. Empty files
    /// and platforms without `mmap` fall back to an owned read; so does a
    /// failing `mmap` call.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the file cannot be opened or (on the
    /// fallback path) read.
    pub fn open(path: &Path) -> io::Result<Self> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;

            let file = std::fs::File::open(path)?;
            let len = usize::try_from(file.metadata()?.len())
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
            if len == 0 {
                return Ok(Self::from_vec(Vec::new()));
            }
            // SAFETY: len is the file's current size and non-zero; the fd
            // is open for reading; a failed map is checked before use.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == sys::MAP_FAILED {
                return Ok(Self::from_vec(std::fs::read(path)?));
            }
            Ok(Self {
                inner: Inner::Mapped {
                    ptr: ptr.cast_const().cast::<u8>(),
                    len,
                },
            })
        }
        #[cfg(not(unix))]
        {
            Ok(Self::from_vec(std::fs::read(path)?))
        }
    }

    /// Wraps an owned buffer (no mapping involved).
    #[must_use]
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Self {
            inner: Inner::Heap(bytes),
        }
    }

    /// `true` when the bytes are served straight from a kernel mapping
    /// rather than an owned copy.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { .. } => true,
            Inner::Heap(_) => false,
        }
    }

    /// The bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { ptr, len } => {
                // SAFETY: the mapping stays valid for `self`'s lifetime
                // (unmapped only in Drop) and is never written.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Inner::Heap(v) => v,
        }
    }
}

impl Deref for MappedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Drop for MappedBytes {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Inner::Mapped { ptr, len } = self.inner {
            // SAFETY: ptr/len came from a successful mmap of exactly this
            // length and are unmapped exactly once.
            unsafe {
                sys::munmap(ptr.cast_mut().cast(), len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mbqc-mmap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn maps_file_contents_exactly() {
        let path = temp_path("exact.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let m = MappedBytes::open(&path).unwrap();
        assert_eq!(&m[..], &payload[..]);
        #[cfg(unix)]
        assert!(m.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_uses_heap_fallback() {
        let path = temp_path("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let m = MappedBytes::open(&path).unwrap();
        assert!(m.is_empty());
        assert!(!m.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = temp_path("never-written.bin");
        assert!(MappedBytes::open(&path).is_err());
    }

    #[test]
    fn rename_replace_leaves_old_mapping_intact() {
        let old = temp_path("replace-old.bin");
        let new = temp_path("replace-new.bin");
        std::fs::write(&old, vec![0xAB; 4096]).unwrap();
        let m = MappedBytes::open(&old).unwrap();
        std::fs::write(&new, vec![0xCD; 4096]).unwrap();
        std::fs::rename(&new, &old).unwrap();
        // The mapping pins the old inode: bytes are unchanged.
        assert!(m.iter().all(|&b| b == 0xAB));
        std::fs::remove_file(&old).ok();
    }

    #[test]
    fn from_vec_round_trips() {
        let m = MappedBytes::from_vec(vec![1, 2, 3]);
        assert_eq!(&m[..], &[1, 2, 3]);
        assert!(!m.is_mapped());
    }
}
