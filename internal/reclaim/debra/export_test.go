package debra

// BagThresh is bagThresh, for the limbo bound the tests assert.
const BagThresh = bagThresh
