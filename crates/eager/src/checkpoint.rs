//! Checkpoints of the eager baseline engine.
//!
//! Much simpler than the lazy engine's ([`lrc_core::EngineCheckpoint`]):
//! eager RC keeps no interval history and no vector clocks, so a
//! checkpoint is just the directory (copyset and owner per page) plus each
//! processor's committed page frames. The codec mirrors the lazy one —
//! little-endian, page-sized raw contents — and shares its error type.

use lrc_core::checkpoint::{read_frame_head, read_header, write_frame_head, write_header, Reader};
use lrc_core::CheckpointError;
use lrc_pagemem::PageId;
use lrc_vclock::ProcId;

const MAGIC: &[u8; 4] = b"ERCK";

/// One processor's frame of one page (committed contents only — a dirty
/// page contributes its twin, so uncommitted epoch writes are never
/// checkpointed).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EagerFrame {
    /// The page.
    pub page: PageId,
    /// Resident committed contents, if any.
    pub contents: Option<Vec<u8>>,
    /// Whether the copy was valid.
    pub valid: bool,
}

/// A full checkpoint of the eager engine at a synchronization point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EagerCheckpoint {
    /// Number of processors.
    pub n_procs: usize,
    /// Page size in bytes.
    pub page_bytes: usize,
    /// Number of pages.
    pub n_pages: usize,
    /// Directory: `(copyset mask, owner)` per page.
    pub dir: Vec<(u64, ProcId)>,
    /// Per-processor non-default frames, index = processor id.
    pub procs: Vec<Vec<EagerFrame>>,
}

impl EagerCheckpoint {
    /// Serializes the checkpoint.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_header(MAGIC, self.n_procs, self.page_bytes, self.n_pages, &mut out);
        for &(copyset, owner) in &self.dir {
            out.extend_from_slice(&copyset.to_le_bytes());
            out.extend_from_slice(&owner.raw().to_le_bytes());
        }
        for frames in &self.procs {
            out.extend_from_slice(&(frames.len() as u32).to_le_bytes());
            for frame in frames {
                write_frame_head(
                    frame.page,
                    frame.contents.as_deref(),
                    frame.valid,
                    self.page_bytes,
                    &mut out,
                );
            }
        }
        out
    }

    /// Deserializes a checkpoint produced by [`EagerCheckpoint::encode`].
    pub fn decode(bytes: &[u8]) -> Result<EagerCheckpoint, CheckpointError> {
        let mut r = Reader::new(bytes);
        let (n_procs, page_bytes, n_pages) = read_header(&mut r, MAGIC)?;
        r.fits(n_pages, 10)?;
        let mut dir = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            let copyset = r.u64()?;
            let owner = ProcId::new(r.u16()?);
            if owner.index() >= n_procs {
                return Err(CheckpointError::Corrupt(
                    "directory owner out of range".into(),
                ));
            }
            dir.push((copyset, owner));
        }
        let mut procs = Vec::with_capacity(n_procs);
        for _ in 0..n_procs {
            let n_frames = r.count(5)?;
            let mut frames = Vec::with_capacity(n_frames);
            for _ in 0..n_frames {
                let (page, contents, valid) = read_frame_head(&mut r, page_bytes, n_pages)?;
                frames.push(EagerFrame {
                    page,
                    contents,
                    valid,
                });
            }
            procs.push(frames);
        }
        r.done()?;
        Ok(EagerCheckpoint {
            n_procs,
            page_bytes,
            n_pages,
            dir,
            procs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        let ckpt = EagerCheckpoint {
            n_procs: 2,
            page_bytes: 64,
            n_pages: 2,
            dir: vec![(0b11, ProcId::new(0)), (0b10, ProcId::new(1))],
            procs: vec![
                vec![EagerFrame {
                    page: PageId::new(0),
                    contents: Some(vec![3u8; 64]),
                    valid: true,
                }],
                vec![EagerFrame {
                    page: PageId::new(1),
                    contents: None,
                    valid: false,
                }],
            ],
        };
        let bytes = ckpt.encode();
        assert_eq!(EagerCheckpoint::decode(&bytes).unwrap(), ckpt);
        assert!(matches!(
            EagerCheckpoint::decode(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::Corrupt(_))
        ));
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(EagerCheckpoint::decode(&bad).is_err());
    }
}
