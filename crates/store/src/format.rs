//! File header: magic, format version, artifact kind.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = b"JMIS"
//! 4       2     format version (u16 LE)
//! 6       1     artifact kind tag
//! 7       1     reserved (must be 0)
//! ```
//!
//! The version is bumped on any incompatible layout change; readers reject
//! files with a version greater than [`FORMAT_VERSION`] with a typed
//! [`StoreError::UnsupportedVersion`] so an old binary never misreads a new
//! file.

use std::io::{Read, Write};

use crate::error::{Result, StoreError};
use crate::wire::{Reader, Writer};

/// Magic bytes identifying a `joinmi` store file.
pub const MAGIC: [u8; 4] = *b"JMIS";

/// Current (highest understood) format version.
///
/// Repository artifacts are read at exactly this version: the v3 layout
/// (appendable, compactable, with per-column distinct sketches and a sealed
/// flag) is the only one readers accept, and v1/v2 repository headers are
/// rejected with [`StoreError::UnsupportedVersion`] (re-ingest). Standalone
/// sketch artifacts are still stamped [`FORMAT_VERSION_V1`], since their wire
/// format never changed.
///
/// The full byte-level specification lives in `docs/FORMAT.md`.
pub const FORMAT_VERSION: u16 = 3;

/// The version standalone sketch artifacts are written at (see
/// [`FORMAT_VERSION`]).
pub const FORMAT_VERSION_V1: u16 = 1;

/// What a store file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A single serialized column sketch.
    Sketch,
    /// A full table repository: config, profiles, index postings, candidates.
    Repository,
}

impl ArtifactKind {
    /// The on-disk tag byte.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            Self::Sketch => 1,
            Self::Repository => 2,
        }
    }

    /// Decodes a tag byte.
    pub fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            1 => Ok(Self::Sketch),
            2 => Ok(Self::Repository),
            other => Err(StoreError::corrupt(format!(
                "unknown artifact kind tag {other}"
            ))),
        }
    }
}

/// Writes the 8-byte file header at the current [`FORMAT_VERSION`].
pub fn write_header<W: Write>(w: &mut Writer<W>, kind: ArtifactKind) -> Result<()> {
    write_header_with_version(w, kind, FORMAT_VERSION)
}

/// Writes the 8-byte file header with an explicit version — for artifact
/// kinds whose wire format did not change in a bump (standalone sketches are
/// still written as v1).
pub fn write_header_with_version<W: Write>(
    w: &mut Writer<W>,
    kind: ArtifactKind,
    version: u16,
) -> Result<()> {
    debug_assert!((1..=FORMAT_VERSION).contains(&version));
    w.write_raw(&MAGIC)?;
    w.write_u16(version)?;
    w.write_u8(kind.tag())?;
    w.write_u8(0) // reserved
}

/// Reads and validates the file header, checking magic, version, and that the
/// file holds the expected artifact kind.
pub fn read_header<R: Read>(r: &mut Reader<R>, expected: ArtifactKind) -> Result<u16> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic, "file header magic")?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic { found: magic });
    }
    let version = r.read_u16("file header version")?;
    if version > FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let kind_tag = r.read_u8("file header artifact kind")?;
    let kind = ArtifactKind::from_tag(kind_tag)?;
    if kind != expected {
        return Err(StoreError::WrongArtifact {
            expected: expected.tag(),
            found: kind_tag,
        });
    }
    let _reserved = r.read_u8("file header reserved byte")?;
    Ok(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header_bytes(kind: ArtifactKind) -> Vec<u8> {
        let mut w = Writer::new(Vec::new());
        write_header(&mut w, kind).unwrap();
        w.into_inner()
    }

    #[test]
    fn header_round_trips() {
        for kind in [ArtifactKind::Sketch, ArtifactKind::Repository] {
            let bytes = header_bytes(kind);
            assert_eq!(bytes.len(), 8);
            let mut r = Reader::new(bytes.as_slice());
            assert_eq!(read_header(&mut r, kind).unwrap(), FORMAT_VERSION);
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = header_bytes(ArtifactKind::Sketch);
        bytes[0] = b'X';
        let mut r = Reader::new(bytes.as_slice());
        assert!(matches!(
            read_header(&mut r, ArtifactKind::Sketch),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = header_bytes(ArtifactKind::Sketch);
        bytes[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let mut r = Reader::new(bytes.as_slice());
        match read_header(&mut r, ArtifactKind::Sketch) {
            Err(StoreError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn artifact_kind_mismatch_is_rejected() {
        let bytes = header_bytes(ArtifactKind::Sketch);
        let mut r = Reader::new(bytes.as_slice());
        assert!(matches!(
            read_header(&mut r, ArtifactKind::Repository),
            Err(StoreError::WrongArtifact { .. })
        ));
    }

    #[test]
    fn truncated_header_is_typed() {
        let bytes = header_bytes(ArtifactKind::Sketch);
        let mut r = Reader::new(&bytes[..3]);
        assert!(matches!(
            read_header(&mut r, ArtifactKind::Sketch),
            Err(StoreError::Truncated { .. })
        ));
    }
}
