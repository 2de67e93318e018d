//! ERIM-style binary inspection of executable code images.
//!
//! ERIM (Vahldiek-Oberwagner et al., USENIX Security '19, §4.2) makes the
//! call-gate discipline *enforceable* by statically scanning the
//! process's executable pages for PKRU-updating instruction sequences and
//! rejecting any occurrence outside a registered call gate. The key
//! subtlety is that x86 has no alignment: an indirect jump can land at
//! any byte offset, so the scan must consider sequences formed *across*
//! intended instruction boundaries and *inside* immediates or
//! displacements — `mov eax, 0x00EF010F` carries an executable WRPKRU in
//! its immediate. The scanner here is therefore a pure byte-level sweep
//! over every offset of a [`CodeImage`]; it never disassembles.
//!
//! Two sequences update the protection-key rights register:
//!
//! * `WRPKRU` — bytes `0F 01 EF`;
//! * `XRSTOR` — opcode `0F AE /5` with a memory operand (ModRM reg field
//!   `101`, mod ≠ `11`), which can reload PKRU from a crafted XSAVE area.
//!
//! ModRM bytes with reg `101` and mod `11` encode `LFENCE` (`0F AE E8+`):
//! they byte-alias the XRSTOR opcode but cannot execute as one, so they
//! are reported on the counted *lint* tier, as is a sequence straddling a
//! gate boundary (neither provably trusted nor provably unreachable).
//! Occurrences fully inside a registered gate are the design working as
//! intended and stay silent.
//!
//! For each unsafe site the diagnostic carries ERIM's §5 fix: *sequence
//! elimination* — rewrite the embedding instruction so the bytes no
//! longer appear (split the immediate, reassign registers, insert a
//! pseudo-NOP between the offending bytes) or move the update into a
//! registered gate.

use pmo_trace::json::{self, Object, Value};
use pmo_trace::{CodeImage, ThreadId, TraceEvent, Va};

use crate::diag::{AnalyzerPass, Diagnostic, EventCtx, Severity, ViolationClass};

/// The WRPKRU instruction bytes.
pub const WRPKRU: [u8; 3] = [0x0F, 0x01, 0xEF];

/// Virtual address the canonical trusted-monitor text segment loads at
/// (classic ELF text base; distinct from every pool mapping).
pub const MONITOR_TEXT_BASE: Va = 0x40_0000;

/// What kind of key-update byte sequence a scan hit found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyUpdateKind {
    /// `0F 01 EF` — WRPKRU, a direct PKRU write.
    Wrpkru,
    /// `0F AE /5` with a memory operand — XRSTOR, which can restore PKRU
    /// from an attacker-controlled XSAVE area.
    Xrstor,
    /// `0F AE E8+` — LFENCE: byte-aliases the XRSTOR opcode (reg field
    /// `101`) but mod `11` makes it a fence, not a key update.
    XrstorAlias,
}

impl KeyUpdateKind {
    /// Short mnemonic for diagnostics.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            KeyUpdateKind::Wrpkru => "WRPKRU",
            KeyUpdateKind::Xrstor => "XRSTOR",
            KeyUpdateKind::XrstorAlias => "LFENCE (XRSTOR byte-alias)",
        }
    }

    /// Whether an occurrence outside a gate is actually executable as a
    /// key update (the error tier); aliases land on the lint tier.
    #[must_use]
    pub fn exploitable(self) -> bool {
        !matches!(self, KeyUpdateKind::XrstorAlias)
    }
}

/// One scan hit: a key-update(-looking) byte sequence at a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyUpdateSite {
    /// Byte offset of the first sequence byte in the image.
    pub offset: u64,
    /// Sequence length in bytes (always 3 for both encodings).
    pub len: u64,
    /// Which sequence matched.
    pub kind: KeyUpdateKind,
}

impl KeyUpdateSite {
    /// The matched bytes, for hex-dumping into diagnostics.
    #[must_use]
    pub fn bytes<'a>(&self, image: &'a CodeImage) -> &'a [u8] {
        &image.bytes[self.offset as usize..(self.offset + self.len) as usize]
    }
}

/// Scans every byte offset of `image` for key-update sequences,
/// gate-blind: callers classify hits against the image's gates. Hits come
/// back in ascending offset order.
#[must_use]
pub fn scan_image(image: &CodeImage) -> Vec<KeyUpdateSite> {
    let mut sites = Vec::new();
    let b = &image.bytes;
    for i in 0..b.len().saturating_sub(2) {
        if b[i] != 0x0F {
            continue;
        }
        if b[i + 1] == 0x01 && b[i + 2] == 0xEF {
            sites.push(KeyUpdateSite { offset: i as u64, len: 3, kind: KeyUpdateKind::Wrpkru });
        } else if b[i + 1] == 0xAE && (b[i + 2] >> 3) & 7 == 5 {
            let kind =
                if b[i + 2] >> 6 == 3 { KeyUpdateKind::XrstorAlias } else { KeyUpdateKind::Xrstor };
            sites.push(KeyUpdateSite { offset: i as u64, len: 3, kind });
        }
    }
    sites
}

/// The canonical trusted-monitor code image: a call gate that zeroes
/// ECX/EDX, loads the new PKRU value, executes WRPKRU, and restores
/// extended state via XRSTOR — wrapped in benign prologue/epilogue bytes.
/// Both key-update sequences sit inside the registered gate, so a clean
/// inspection of this image is silent.
#[must_use]
pub fn monitor_image(thread: ThreadId, base: Va) -> CodeImage {
    let mut bytes = vec![
        0x55, // push rbp
        0x48, 0x89, 0xE5, // mov rbp, rsp
        0x90, 0x90, // nop padding up to the gate
    ];
    let gate_start = bytes.len() as u64;
    bytes.extend_from_slice(&[0x31, 0xC9]); // xor ecx, ecx
    bytes.extend_from_slice(&[0x31, 0xD2]); // xor edx, edx
    bytes.extend_from_slice(&[0xB8, 0x0C, 0x00, 0x00, 0x00]); // mov eax, PKRU value
    bytes.extend_from_slice(&WRPKRU); // wrpkru
    bytes.extend_from_slice(&[0x0F, 0xAE, 0x2B]); // xrstor [rbx]
    let gate_end = bytes.len() as u64;
    bytes.extend_from_slice(&[0xB8, 0x01, 0x00, 0x00, 0x00]); // mov eax, 1
    bytes.push(0x5D); // pop rbp
    bytes.push(0xC3); // ret
    CodeImage::new(thread, base, bytes).with_gate("pmo_call_gate", gate_start, gate_end)
}

/// ERIM §5 sequence-elimination rewrite suggestion for a site.
fn rewrite_suggestion(kind: KeyUpdateKind) -> &'static str {
    match kind {
        KeyUpdateKind::Wrpkru => {
            "rewrite per ERIM §5 sequence elimination: if the bytes are an \
             intentional WRPKRU, move it into a registered call gate; if they \
             are data (immediate/displacement), split the constant across two \
             instructions or insert a pseudo-NOP between 0f 01 and ef"
        }
        KeyUpdateKind::Xrstor => {
            "rewrite per ERIM §5 sequence elimination: route XRSTOR through a \
             registered call gate that pins the XSAVE area's PKRU field, or \
             recode the embedding instruction so 0f ae /5 no longer appears"
        }
        KeyUpdateKind::XrstorAlias => {
            "not executable as a key update (mod=11 encodes LFENCE); eliminate \
             the byte-alias anyway if the surrounding code is attacker-visible"
        }
    }
}

/// The binary-inspection pass: holds the registered per-thread code
/// images and, at end of trace, reports every key-update sequence found
/// outside a registered call gate.
///
/// Inspection is a whole-image property, not an event property, so
/// [`AnalyzerPass::check`] only keeps the pass streaming-compatible; all
/// findings are emitted from [`AnalyzerPass::finish`].
#[derive(Debug, Default)]
pub struct InspectPass {
    images: Vec<CodeImage>,
}

impl InspectPass {
    /// An inspection pass with no images (register via
    /// [`InspectPass::with_image`]).
    #[must_use]
    pub fn new() -> Self {
        InspectPass { images: Vec::new() }
    }

    /// Registers a code image to inspect (builder style).
    #[must_use]
    pub fn with_image(mut self, image: CodeImage) -> Self {
        self.images.push(image);
        self
    }

    /// The standard pass used by the audit-by-default replay path: the
    /// canonical trusted-monitor image, mapped once for the process at
    /// [`MONITOR_TEXT_BASE`].
    #[must_use]
    pub fn standard() -> Self {
        InspectPass::new().with_image(monitor_image(ThreadId::MAIN, MONITOR_TEXT_BASE))
    }

    /// Read-only view of the registered images.
    #[must_use]
    pub fn images(&self) -> &[CodeImage] {
        &self.images
    }
}

impl AnalyzerPass for InspectPass {
    fn name(&self) -> &'static str {
        "inspect"
    }

    fn check(&mut self, _ctx: EventCtx, _ev: &TraceEvent, _out: &mut Vec<Diagnostic>) {}

    fn finish(&mut self, ctx: EventCtx, out: &mut Vec<Diagnostic>) {
        for image in &self.images {
            for site in scan_image(image) {
                let end = site.offset + site.len;
                if image.gate_containing(site.offset, end).is_some() {
                    continue; // the registered gate: the design working as intended
                }
                let hex: Vec<String> =
                    site.bytes(image).iter().map(|b| format!("{b:02x}")).collect();
                let va = image.base + site.offset;
                let (severity, detail) = if !site.kind.exploitable() {
                    (Severity::Lint, rewrite_suggestion(site.kind).to_string())
                } else if let Some(gate) = image.gate_straddling(site.offset, end) {
                    (
                        Severity::Lint,
                        format!(
                            "straddles the boundary of gate '{}' — not provably inside \
                             the trusted gate; move the sequence fully inside it",
                            gate.name
                        ),
                    )
                } else {
                    (Severity::Error, rewrite_suggestion(site.kind).to_string())
                };
                out.push(Diagnostic {
                    pass: self.name(),
                    class: ViolationClass::UnsafeKeyUpdateSite,
                    severity,
                    thread: image.thread,
                    position: ctx.pos,
                    message: format!(
                        "{} byte sequence {} at va {va:#x} (image offset {}) outside any \
                         registered call gate; {detail}",
                        site.kind.mnemonic(),
                        hex.join(" "),
                        site.offset,
                    ),
                });
            }
        }
    }
}

/// Outcome of inspecting one seeded code image in the self-validation
/// suite.
#[derive(Clone, Debug)]
pub struct InspectCase {
    /// Which planted bug this case seeded.
    pub bug: crate::mutate::SeededCodeBug,
    /// Whether inspection reported the expected error class.
    pub caught: bool,
    /// Error-severity findings the seeded image produced.
    pub errors: usize,
    /// Lint-severity findings the seeded image produced.
    pub lints: usize,
}

/// Self-validation of the inspection pass: the clean trusted-monitor
/// image must be silent, and every [`crate::mutate::SeededCodeBug`]
/// planted into it must be caught as [`ViolationClass::UnsafeKeyUpdateSite`].
#[derive(Clone, Debug)]
pub struct InspectValidation {
    /// Findings (errors + lints) on the unmutated monitor image — must
    /// be zero.
    pub control_findings: usize,
    /// One case per seeded code bug.
    pub cases: Vec<InspectCase>,
}

impl InspectValidation {
    /// Whether the control stayed silent and every seeded bug was caught.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.control_findings == 0 && self.cases.iter().all(|c| c.caught)
    }

    /// The self-validation as JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Value for InspectValidation {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("control_findings", self.control_findings)
            .field("passed", self.passed())
            .field("cases", &self.cases)
            .end();
    }
}

impl Value for InspectCase {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("bug", self.bug.label())
            .field("caught", self.caught)
            .field("errors", self.errors)
            .field("lints", self.lints)
            .end();
    }
}

impl std::fmt::Display for InspectValidation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "inspection control image: {} finding(s) ({})",
            self.control_findings,
            if self.control_findings == 0 { "silent, as required" } else { "MUST be silent" }
        )?;
        for c in &self.cases {
            writeln!(
                f,
                "seeded {}: {} ({} error(s), {} lint(s))",
                c.bug.label(),
                if c.caught { "caught" } else { "MISSED" },
                c.errors,
                c.lints
            )?;
        }
        Ok(())
    }
}

/// Diagnostics the inspection pass produces for `image` over an empty
/// event stream.
fn inspect_only(image: CodeImage) -> Vec<Diagnostic> {
    let mut pass = InspectPass::new().with_image(image);
    let mut out = Vec::new();
    pass.finish(EventCtx { pos: 0, thread: ThreadId::MAIN }, &mut out);
    out
}

/// Runs the inspection self-validation suite: control image silent, each
/// seeded code bug caught. This is the analyzer's own correctness
/// argument for the binary-inspection half of the ERIM property, mirror
/// of the trace-mutation suite in [`crate::mutate`].
#[must_use]
pub fn validate_inspection() -> InspectValidation {
    use crate::mutate::{seed_code_bug, SeededCodeBug};
    let control = monitor_image(ThreadId::MAIN, MONITOR_TEXT_BASE);
    let control_findings = inspect_only(control.clone()).len();
    let cases = SeededCodeBug::ALL
        .iter()
        .map(|&bug| {
            let diags = inspect_only(seed_code_bug(&control, bug));
            let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
            let lints = diags.iter().filter(|d| d.severity == Severity::Lint).count();
            let caught = diags
                .iter()
                .any(|d| d.class == bug.expected_class() && d.severity == Severity::Error);
            InspectCase { bug, caught, errors, lints }
        })
        .collect();
    InspectValidation { control_findings, cases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutate::{seed_code_bug, SeededCodeBug};

    #[test]
    fn monitor_image_is_silent() {
        let diags = inspect_only(monitor_image(ThreadId::MAIN, MONITOR_TEXT_BASE));
        assert!(diags.is_empty(), "trusted monitor must be inspection-clean: {diags:?}");
    }

    #[test]
    fn out_of_gate_wrpkru_is_an_error() {
        let img = CodeImage::new(ThreadId::MAIN, 0x1000, vec![0x90, 0x0F, 0x01, 0xEF, 0x90]);
        let diags = inspect_only(img);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].class, ViolationClass::UnsafeKeyUpdateSite);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("WRPKRU"));
        assert!(diags[0].message.contains("0x1001"), "va anchored: {}", diags[0].message);
        assert!(diags[0].message.contains("ERIM §5"), "rewrite suggestion present");
    }

    #[test]
    fn wrpkru_inside_an_immediate_is_found() {
        // mov eax, 0x00EF010F — the immediate bytes 0F 01 EF are an
        // executable WRPKRU for a jump landing one byte in.
        let img = CodeImage::new(ThreadId::MAIN, 0, vec![0xB8, 0x0F, 0x01, 0xEF, 0x00]);
        let diags = inspect_only(img);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("image offset 1"));
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn sequence_across_instruction_boundary_is_found() {
        // `or eax, 0x0F` (83 C8 0F) followed by `add [rdi], ebp`
        // (01 2F)... the tail byte 0F + following 01 + EF-starting byte
        // form WRPKRU across two intended instructions.
        let img = CodeImage::new(ThreadId::MAIN, 0, vec![0x83, 0xC8, 0x0F, 0x01, 0xEF, 0x90]);
        let diags = inspect_only(img);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("image offset 2"));
    }

    #[test]
    fn xrstor_memory_form_is_error_and_lfence_alias_is_lint() {
        // 0F AE 2B = xrstor [rbx] (mod=00 reg=101): exploitable.
        // 0F AE E8 = lfence (mod=11 reg=101): byte-alias, lint tier.
        let img = CodeImage::new(ThreadId::MAIN, 0, vec![0x0F, 0xAE, 0x2B, 0x90, 0x0F, 0xAE, 0xE8]);
        let diags = inspect_only(img);
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("XRSTOR"));
        assert_eq!(diags[1].severity, Severity::Lint);
        assert!(diags[1].message.contains("LFENCE"));
    }

    #[test]
    fn gate_straddling_sequence_is_a_lint() {
        // Gate covers offsets [0, 2); the WRPKRU at offset 1 leaks out.
        let img = CodeImage::new(ThreadId::MAIN, 0, vec![0x90, 0x0F, 0x01, 0xEF, 0x90])
            .with_gate("g", 0, 2);
        let diags = inspect_only(img);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Lint);
        assert!(diags[0].message.contains("straddles"));
    }

    #[test]
    fn validation_suite_passes() {
        let v = validate_inspection();
        assert!(v.passed(), "{v}");
        assert_eq!(v.cases.len(), SeededCodeBug::ALL.len());
        assert_eq!(v.control_findings, 0);
        let json = v.to_json();
        assert!(json.contains("\"passed\":true"), "{json}");
        assert!(json.contains("out-of-gate-wrpkru"), "{json}");
    }

    #[test]
    fn seeded_images_differ_from_control_only_by_the_plant() {
        let control = monitor_image(ThreadId::MAIN, MONITOR_TEXT_BASE);
        for bug in SeededCodeBug::ALL {
            let seeded = seed_code_bug(&control, bug);
            assert!(seeded.bytes.len() > control.bytes.len(), "{bug:?} appends bytes");
            assert_eq!(seeded.gates, control.gates, "{bug:?} must not touch the gates");
            assert_eq!(&seeded.bytes[..control.bytes.len()], &control.bytes[..]);
        }
    }

    /// Deterministic property harness (the workspace vendors no proptest
    /// crate): across many pseudo-random images, inspection finds *every*
    /// planted unsafe sequence — at arbitrary offsets, inside immediates,
    /// spanning intended instruction boundaries — stays silent on
    /// gate-registered plants, and confines alias near-misses to the
    /// counted lint tier. Filler bytes never contain `0F`, so the planted
    /// sites are the exact ground truth.
    #[test]
    fn property_no_false_negatives_across_random_images() {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            // SplitMix64: deterministic, dependency-free.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // 0F-free filler alphabet: no accidental sequence can form.
        const FILLER: [u8; 8] = [0x90, 0x48, 0x55, 0x5D, 0xC3, 0x31, 0x01, 0xEF];
        for round in 0..200 {
            let len = 64 + (next() % 192) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| FILLER[(next() % 8) as usize]).collect();
            // One gate somewhere in the middle.
            let gate_start = 8 + next() % (len as u64 / 2);
            let gate_end = gate_start + 8 + next() % 16;
            let gate_end = gate_end.min(len as u64);
            // Plant 1-4 sequences at non-overlapping 8-byte-aligned slots.
            let plants = 1 + (next() % 4) as usize;
            let mut expected_errors: Vec<u64> = Vec::new();
            let mut expected_lints: Vec<u64> = Vec::new();
            let mut used: Vec<u64> = Vec::new();
            for _ in 0..plants {
                let slot = (next() % ((len as u64 - 8) / 8)) * 8;
                if used.iter().any(|&u| u.abs_diff(slot) < 8) {
                    continue;
                }
                used.push(slot);
                // Three shapes: bare WRPKRU, WRPKRU in a mov immediate
                // (offset +1), XRSTOR memory form; plus the LFENCE alias.
                let (seq, site_off): (&[u8], u64) = match next() % 4 {
                    0 => (&[0x0F, 0x01, 0xEF], 0),
                    1 => (&[0xB8, 0x0F, 0x01, 0xEF, 0x00], 1),
                    2 => (&[0x0F, 0xAE, 0x2B], 0),
                    _ => (&[0x0F, 0xAE, 0xE8], 0),
                };
                bytes[slot as usize..slot as usize + seq.len()].copy_from_slice(seq);
                let start = slot + site_off;
                let in_gate = start >= gate_start && start + 3 <= gate_end;
                let straddle = start < gate_end && start + 3 > gate_start && !in_gate;
                let alias = seq == [0x0F, 0xAE, 0xE8];
                if in_gate {
                    continue; // registered occurrence: must stay silent
                } else if alias || straddle {
                    expected_lints.push(start);
                } else {
                    expected_errors.push(start);
                }
            }
            let img = CodeImage::new(ThreadId::MAIN, 0, bytes).with_gate("g", gate_start, gate_end);
            let diags = inspect_only(img);
            let mut got_errors: Vec<u64> = Vec::new();
            let mut got_lints: Vec<u64> = Vec::new();
            for d in &diags {
                let off = d
                    .message
                    .split("image offset ")
                    .nth(1)
                    .and_then(|s| s.split(')').next())
                    .and_then(|s| s.parse::<u64>().ok())
                    .expect("diagnostic carries its image offset");
                match d.severity {
                    Severity::Error => got_errors.push(off),
                    Severity::Lint => got_lints.push(off),
                }
            }
            expected_errors.sort_unstable();
            expected_lints.sort_unstable();
            got_errors.sort_unstable();
            got_lints.sort_unstable();
            assert_eq!(got_errors, expected_errors, "round {round}: error sites");
            assert_eq!(got_lints, expected_lints, "round {round}: lint-tier sites");
        }
    }
}
