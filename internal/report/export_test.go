package report

// EntryChunk is the call-graph chunk size, for tests that place entries
// at chunk edges.
const EntryChunk = entryChunk
