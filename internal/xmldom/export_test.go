package xmldom

// NodeSlots exposes the node slab size of a parse to the external tests,
// which build wire documents with packages that import this one.
var NodeSlots = nodeSlots
