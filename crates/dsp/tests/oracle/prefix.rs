//! The sequential reference for `HostStats`' prefixes: every `(Σx, Σx²)`
//! of a host by one serial loop from zero — the full tables a host held
//! before it kept only checkpoints. Replayed window sums, the prefix
//! cursors and the replayed fill of every prefix at once must all be its
//! bits. It lives here, beside the tests that pin them to it, and nowhere
//! in the serving path.

/// `(Σ host[..i], Σ host[..i]²)` for every `i` in `0..=host.len()`.
pub fn prefixes(host: &[f32]) -> Vec<(f64, f64)> {
    let (mut sum, mut energy) = (0.0f64, 0.0f64);
    let mut table = vec![(sum, energy)];
    for &x in host {
        let xf = f64::from(x);
        sum += xf;
        energy += xf * xf;
        table.push((sum, energy));
    }
    table
}
