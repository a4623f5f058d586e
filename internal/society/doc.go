// Package society is the batch side of S³'s sociality learning:
// extracting encounter and co-leaving events from session logs,
// estimating per-pair co-leaving probabilities P(L|E), building the type
// matrix T(type_i, type_j) from application-usage clusters, and
// composing the social relation index θ(u,v) = P(L|E) + α·T that drives
// AP selection.
//
// Train consumes a recorded trace (the paper's back-end login logs) and
// produces an immutable Model in one pass; a Trainer interns a trace once
// for a sweep's many trainings of it. Model is also the serialized form
// (SaveModel, LoadModel), and NewModel builds one from statistics learned
// elsewhere. Use it for offline evaluation and for the periodic
// re-clustering that assigns user types. It counts an encounter per
// overlapping session pair (ExtractEncounters) and a co-leaving per pair
// of session ends inside the window (ExtractCoLeavings), and every
// figure the repository reproduces is pinned to those counts.
//
// A Model keeps its pairs in one table sorted by (A, B) over its users'
// ranks: Index (θ), Prob and Counts read a pair with two rank look-ups
// and a binary search, EachPair walks all of them in order. A selector
// does not scan an AP's residents with Index: Model.CloseFriendRows lays
// the θ > threshold graph out from the table as sorted rows, θ alongside,
// for one α and threshold (core.NewSelector asks once per selector).
//
// Learning from a live controller's Connect/Disconnect events is the
// subpackage society/incremental's job; nothing here has an event method.
// Its engine counts co-leavings the same way but an
// encounter per presence — a user's stacked overlapping sessions on one
// AP are one continuous presence — so the two agree exactly on a trace
// without stacked sessions and the engine counts no more than Train on
// one with them. That difference is why both exist; see Train. Everything
// derived from the counts is this package's alone: P(L|E) and its support
// rule (CoLeaveProb) and the rounded type prior (Prior) feed every θ.
package society
