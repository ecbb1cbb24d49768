include Kit
module Once = Once
module Zoo = Zoo
module Memory = Memory
