//! Synthetic verifier task families: deterministic program rewards the
//! tiny LM can genuinely learn under GRPO/RLVR.
//!
//! Every family recomputes its expected answer from the *prompt* alone
//! and scores the response in `[0, 1]` as a pure function — no model,
//! no state, no clock. That purity is the layout-invariance contract:
//! however the runtime chunks a batch across DP / micro-DP ranks, each
//! row's score depends only on that row's tokens.

/// Which verifier program scores a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifierKind {
    /// Exact-answer extraction: the expected answer is the prompt's
    /// final token; the score is the fraction of response tokens that
    /// reproduce it. Prompt-dependent (no fixed token bias satisfies
    /// it), densely shaped, and learnable by a small LM.
    AnswerExtraction,
    /// Arithmetic checking: the expected answer is
    /// `(prompt[0] + prompt[1]) mod vocab`; the score is the fraction
    /// of response tokens equal to that sum.
    ArithmeticCheck,
    /// Bracket/grammar matching: token parity encodes brackets (even =
    /// open, odd = close). The score is the fraction of the response
    /// forming a valid balanced prefix, with a bonus for closing every
    /// bracket by the end.
    BracketMatch,
}

/// A verifier program plus the vocabulary it operates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifierSpec {
    /// The task family.
    pub kind: VerifierKind,
    /// Vocabulary size (modulus for arithmetic answers).
    pub vocab: u32,
}

impl VerifierSpec {
    /// Scores one `(prompt, response)` pair in `[0, 1]`. Pure and total:
    /// empty responses score 0, and every token stream is scoreable.
    pub(crate) fn score(&self, prompt: &[u32], response: &[u32]) -> f32 {
        if response.is_empty() {
            return 0.0;
        }
        let n = response.len() as f32;
        match self.kind {
            VerifierKind::AnswerExtraction => {
                let Some(&expected) = prompt.last() else { return 0.0 };
                response.iter().filter(|&&t| t == expected).count() as f32 / n
            }
            VerifierKind::ArithmeticCheck => {
                if prompt.len() < 2 || self.vocab == 0 {
                    return 0.0;
                }
                let expected = (prompt[0] + prompt[1]) % self.vocab;
                response.iter().filter(|&&t| t == expected).count() as f32 / n
            }
            VerifierKind::BracketMatch => {
                let mut depth: i64 = 0;
                let mut valid = 0usize;
                for &t in response {
                    depth += if t % 2 == 0 { 1 } else { -1 };
                    if depth < 0 {
                        break;
                    }
                    valid += 1;
                }
                let prefix = valid as f32 / n;
                let closed = valid == response.len() && depth == 0;
                0.5 * prefix + if closed { 0.5 } else { 0.0 }
            }
        }
    }
}

/// Deterministic verifier prompts: `rows` prompts of `prompt_len`
/// tokens over `vocab`, varied by `seed`, shaped so every family has a
/// well-defined target (length ≥ 2, varied final/leading tokens).
/// Returns the flat row-major token matrix.
pub fn make_verifier_prompts(rows: usize, prompt_len: usize, vocab: u32, seed: u64) -> Vec<u32> {
    assert!(prompt_len >= 2, "verifier prompts need at least two tokens");
    assert!(vocab > 0, "verifier prompts need a non-empty vocabulary");
    let mut out = Vec::with_capacity(rows * prompt_len);
    for r in 0..rows as u64 {
        for j in 0..prompt_len as u64 {
            let h = crate::splitmix(seed ^ r.wrapping_mul(0x9e37) ^ j.wrapping_mul(0x85eb));
            out.push((h % vocab as u64) as u32);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: VerifierKind) -> VerifierSpec {
        VerifierSpec { kind, vocab: 16 }
    }

    #[test]
    fn answer_extraction_scores_fraction_of_copies() {
        let s = spec(VerifierKind::AnswerExtraction);
        let prompt = [1, 2, 7];
        assert_eq!(s.score(&prompt, &[7, 7, 7, 7]), 1.0);
        assert_eq!(s.score(&prompt, &[7, 0, 7, 0]), 0.5);
        assert_eq!(s.score(&prompt, &[0, 1, 2, 3]), 0.0);
    }

    #[test]
    fn arithmetic_check_uses_mod_vocab_sum() {
        let s = spec(VerifierKind::ArithmeticCheck);
        let prompt = [9, 9, 0]; // 18 mod 16 = 2
        assert_eq!(s.score(&prompt, &[2, 2]), 1.0);
        assert_eq!(s.score(&prompt, &[2, 3]), 0.5);
    }

    #[test]
    fn bracket_match_rewards_balanced_prefixes() {
        let s = spec(VerifierKind::BracketMatch);
        // open open close close = fully balanced.
        assert_eq!(s.score(&[0, 0], &[2, 4, 1, 3]), 1.0);
        // close-first is invalid immediately: zero valid prefix.
        assert_eq!(s.score(&[0, 0], &[1, 2, 3, 4]), 0.0);
        // all-open: valid prefix but never closed.
        assert_eq!(s.score(&[0, 0], &[2, 2, 2, 2]), 0.5);
    }

    #[test]
    fn scores_are_pure_and_bounded() {
        for kind in [
            VerifierKind::AnswerExtraction,
            VerifierKind::ArithmeticCheck,
            VerifierKind::BracketMatch,
        ] {
            let s = spec(kind);
            let prompts = make_verifier_prompts(8, 4, 16, 3);
            let resp = make_verifier_prompts(8, 5, 16, 4);
            for r in 0..8 {
                let p = &prompts[r * 4..(r + 1) * 4];
                let q = &resp[r * 5..(r + 1) * 5];
                let a = s.score(p, q);
                assert_eq!(a.to_bits(), s.score(p, q).to_bits(), "{kind:?} must be pure");
                assert!((0.0..=1.0).contains(&a), "{kind:?} out of range: {a}");
            }
        }
    }

    #[test]
    fn empty_response_scores_zero() {
        for kind in [
            VerifierKind::AnswerExtraction,
            VerifierKind::ArithmeticCheck,
            VerifierKind::BracketMatch,
        ] {
            assert_eq!(spec(kind).score(&[1, 2], &[]), 0.0);
        }
    }

    #[test]
    fn prompts_are_deterministic_and_in_vocab() {
        let a = make_verifier_prompts(4, 6, 16, 9);
        let b = make_verifier_prompts(4, 6, 16, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|&t| t < 16));
        assert_ne!(a, make_verifier_prompts(4, 6, 16, 10));
    }
}
